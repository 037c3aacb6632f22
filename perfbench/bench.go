package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"logstore"
	"logstore/internal/httpapi"
	"logstore/internal/workload"
)

// History of the generated rows: 48 hours from the paper's sample day.
const (
	histStartMS = 1_605_052_800_000 // 2020-11-11T00:00:00Z
	histSpanMS  = 48 * 3600 * 1000
	histEndMS   = histStartMS + histSpanMS
	allTimeMS   = 1 << 62
	// Warm-up and probe rows sit outside the history, so they never fall
	// in a timed query's window.
	warmupStartMS   = histStartMS - 3600*1000
	probeStartMS    = histEndMS + 3600*1000
	residentStartMS = histEndMS + 3*3600*1000
)

// shape is a workload's fixed input make-up.
type shape struct {
	tenants   int
	theta     float64
	batchRows int
	writers   int
	roundRows int // rows per archive round; one Cluster.Flush per round
	rows      int // rows written in the timed write phase
	http      bool
	durable   bool
	// query workload: the paper's six query shapes, read through the
	// latency model once the preload is archived.
	sixShapes    bool
	queryTenants int // the query set covers the hottest queryTenants tenants
	// The read phases run readRounds times, so their samples span the
	// run: one cold pass over the query set (caches emptied before each
	// query), one untimed pass that fills the caches, then warmPasses
	// warm passes.
	readRounds, warmPasses int
	// serve: open-loop reader over the freshest rows during the writes,
	// and the overlap probe of every archive pass (overlap.go).
	readRate     float64 // queries per second
	readQueries  int
	overlapProbe bool
}

// batch is one append request: the rows and, for HTTP, the JSON body.
type batch struct {
	seq  int64 // stream position of the first row
	rows []logstore.Row
	body []byte
}

// bench is one run of one workload.
type bench struct {
	seed    int64
	sh      shape
	workdir string
	tr      *tracer

	store   *timedStore
	c       *logstore.Cluster
	srv     *http.Server
	srvDone chan struct{}
	baseURL string
	hc      *http.Client
	dataDir string

	led      *ledger
	counters map[string]float64
	metrics  map[string]float64
	report   []string

	attempted, failed int64
	problems          []string
	reqSeq            atomic.Int64
	openLoop          []openLoopQuery

	// serve's single writer publishes the stream positions it has sent
	// and had acknowledged, for the open-loop reader's bounds.
	sent, acked atomic.Int64
	// gate keeps serve's open-loop reads out of archive passes: a query
	// that overlaps Cluster.Flush can count rows twice, at random, so
	// the overlap probe reads during each pass at a fixed point instead.
	// paused is the total pass time, by which the read schedule is
	// shifted.
	gate   sync.RWMutex
	paused time.Duration
	ov     overlapProbe
}

func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// ---- cluster lifecycle ----

func (b *bench) open(n int) error {
	b.store = newTimedStore(b.seed)
	cfg := logstore.Config{
		Store: b.store,
		// Archiving happens only at the benchmark's fixed row counts.
		ArchiveInterval: 24 * time.Hour,
	}
	if b.sh.durable {
		b.dataDir = filepath.Join(b.workdir, fmt.Sprintf("data-%d-%d", os.Getpid(), n))
		if err := os.RemoveAll(b.dataDir); err != nil {
			return err
		}
		cfg.DataDir = b.dataDir
	}
	c, err := logstore.Open(cfg)
	if err != nil {
		return fmt.Errorf("open cluster: %w", err)
	}
	b.c = c
	if !b.sh.http {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = httpapi.Handler(c)
	if b.tr != nil {
		h = traceHandler(b.tr, h)
	}
	b.srv = &http.Server{Handler: h}
	b.srvDone = make(chan struct{})
	go func() {
		defer close(b.srvDone)
		_ = b.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	b.baseURL = "http://" + ln.Addr().String()
	b.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true,
	}}
	return nil
}

func (b *bench) close() {
	if b.srv != nil {
		_ = b.srv.Close()
		<-b.srvDone
		b.srv = nil
		b.hc.CloseIdleConnections()
	}
	if b.c != nil {
		b.c.Close()
		b.c = nil
	}
	if b.dataDir != "" {
		_ = os.RemoveAll(b.dataDir)
		b.dataDir = ""
	}
}

// ---- client calls ----

// appendBatch sends one batch through the workload's client path.
func (b *bench) appendBatch(bt *batch) error {
	req := b.reqSeq.Add(1)
	if !b.sh.http {
		sp := b.tr.begin("cluster.append", 0, req)
		err := b.c.Append(bt.rows...)
		sp.end(int64(len(bt.rows)), 0, 0)
		return err
	}
	sp := b.tr.begin("client.append", 0, req)
	_, err := b.post("/append", bt.body, sp.id(), req, len(bt.rows))
	sp.end(int64(len(bt.rows)), int64(len(bt.body)), 0)
	return err
}

func (b *bench) post(path string, body []byte, parent, req int64, rows int) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, b.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		hr.Header.Set("X-Perfbench-Span", strconv.FormatInt(parent, 10))
		hr.Header.Set("X-Perfbench-Req", strconv.FormatInt(req, 10))
		hr.Header.Set("X-Perfbench-Rows", strconv.Itoa(rows))
	}
	resp, err := b.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// runQuery sends one query through the workload's client path. Direct
// queries also fold the executor's counters into the run's counters.
func (b *bench) runQuery(p pred, spanName string) (answer, error) {
	req := b.reqSeq.Add(1)
	sql := p.sql()
	if !b.sh.http {
		sp := b.tr.begin(spanName, 0, req)
		res, err := b.c.Query(sql)
		sp.end(0, 0, 0)
		if err != nil {
			return answer{}, err
		}
		b.foldStats(res)
		logs := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			logs[i] = r[0].S
		}
		return answerOf(p, res.Count, logs), nil
	}
	sp := b.tr.begin("client.query", 0, req)
	out, err := b.post("/query", []byte(sql), sp.id(), req, 0)
	sp.end(0, 0, 0)
	if err != nil {
		return answer{}, err
	}
	var qr httpapi.QueryResponse
	if err := json.Unmarshal(out, &qr); err != nil {
		return answer{}, fmt.Errorf("decode query response: %w", err)
	}
	logs := make([]string, len(qr.Rows))
	for i, r := range qr.Rows {
		logs[i] = r[0]
	}
	return answerOf(p, qr.Count, logs), nil
}

// foldStats adds one direct query's executor counters to the run's.
func (b *bench) foldStats(res *logstore.Result) {
	c := b.counters
	c["stats.queries"]++
	c["stats.blocks_examined"] += float64(res.Stats.BlocksExamined)
	c["stats.blocks_skipped_sma"] += float64(res.Stats.BlocksSkippedBySMA)
	c["stats.index_lookups"] += float64(res.Stats.IndexLookups)
	c["stats.column_blocks_scanned"] += float64(res.Stats.ColumnBlocksScanned)
	c["stats.column_blocks_skipped"] += float64(res.Stats.ColumnBlocksSkipped)
	c["stats.rows_returned"] += float64(int64(len(res.Rows)) + res.Count)
}

// countCandidates adds the catalog entries overlapping p's window to the
// counters of a traced run, for each direct query (the ones whose
// executor counters foldStats keeps), outside the query's timing.
func (b *bench) countCandidates(p pred) {
	if b.tr == nil {
		return
	}
	for _, blk := range b.c.TenantBlocks(p.Tenant) {
		if blk.MaxTS >= p.MinTS && blk.MinTS <= p.MaxTS {
			b.counters["meta.candidates"]++
		}
	}
}

// flush runs one timed archive pass.
func (b *bench) flush() (time.Duration, error) {
	var before logstore.ClusterStats
	if b.tr != nil {
		var resident int64
		for _, id := range b.c.WorkerIDs() {
			if w, ok := b.c.Worker(id); ok {
				resident += w.ResidentRows()
			}
		}
		if float64(resident) > b.counters["rowstore.resident_peak"] {
			b.counters["rowstore.resident_peak"] = float64(resident)
		}
		before = b.c.Stats()
	}
	if b.sh.overlapProbe {
		if err := b.appendOverlapRows(); err != nil {
			return 0, err
		}
		b.armOverlap()
	}
	s0 := b.store.snapshot()
	b.gate.Lock()
	sp := b.tr.begin("builder.pass", 0, b.reqSeq.Add(1))
	t0 := time.Now()
	err := b.c.Flush()
	d := time.Since(t0)
	b.paused += d
	b.gate.Unlock()
	if b.sh.overlapProbe {
		b.checkOverlap()
	}
	if b.tr != nil {
		after := b.c.Stats()
		sp.end(after.ArchivedRows-before.ArchivedRows, 0, int64(after.ArchivedBlocks-before.ArchivedBlocks))
	}
	ds := b.store.snapshot().sub(s0)
	b.counters["pass.oss_puts"] += float64(ds.Puts)
	b.counters["pass.oss_put_bytes"] += float64(ds.PutBytes)
	b.counters["pass.oss_put_ns"] += float64(ds.PutNS)
	return d, err
}

// purgeCaches empties every worker's cache levels.
func (b *bench) purgeCaches() {
	for _, id := range b.c.WorkerIDs() {
		if w, ok := b.c.Worker(id); ok {
			w.PurgeCaches()
		}
	}
}

func (b *bench) cacheStats() (hits, misses int64) {
	for _, id := range b.c.WorkerIDs() {
		if w, ok := b.c.Worker(id); ok {
			h, m, _, _ := w.CacheStats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}

// ---- inputs ----

// rowSource makes the timed phase's batches one round at a time, so the
// measured process holds at most one round of inputs. Writers interleave
// in time (writer w's rows sit at ts ≡ w mod step), so every row's ts is
// unique and the rows of all writers cover the same 48-hour history.
type rowSource struct {
	sh   shape
	gens []*workload.Generator
	step int64
	seq  int64
}

func (b *bench) newRowSource() *rowSource {
	sh := b.sh
	src := &rowSource{sh: sh, step: int64(histSpanMS) / int64(sh.rows/sh.writers)}
	for w := 0; w < sh.writers; w++ {
		src.gens = append(src.gens, workload.NewGenerator(workload.GeneratorConfig{
			Tenants: sh.tenants, Theta: sh.theta, Seed: b.seed*1000 + int64(w),
			StartMS: histStartMS + int64(w), StepMS: src.step,
		}))
	}
	return src
}

// rounds is the number of archive rounds in the timed phase.
func (s *rowSource) rounds() int { return s.sh.rows / s.sh.roundRows }

// round makes the next round's batches: writer w appends round[w].
func (s *rowSource) round() [][]*batch {
	sh := s.sh
	out := make([][]*batch, sh.writers)
	for i := 0; i < sh.roundRows/sh.writers/sh.batchRows; i++ {
		for w := range out {
			bt := &batch{seq: s.seq, rows: s.gens[w].Batch(sh.batchRows)}
			s.seq += int64(len(bt.rows))
			if sh.http {
				bt.body = encodeBatch(bt.rows)
			}
			out[w] = append(out[w], bt)
		}
	}
	return out
}

// tsAt is the timestamp of the single writer's row at stream position seq.
func (s *rowSource) tsAt(seq int64) int64 { return histStartMS + seq*s.step }

// extraBatch makes one batch outside the timed history (warm-up, probes).
func (b *bench) extraBatch(startMS, seed int64, n int) *batch {
	g := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: b.sh.tenants, Theta: b.sh.theta, Seed: seed, StartMS: startMS,
	})
	bt := &batch{seq: 1 << 40, rows: g.Batch(n)}
	if b.sh.http {
		bt.body = encodeBatch(bt.rows)
	}
	return bt
}

func encodeBatch(rows []logstore.Row) []byte {
	recs := make([]httpapi.Record, len(rows))
	for i, r := range rows {
		recs[i] = httpapi.Record{
			Tenant: r[colTenant].I, TS: r[colTS].I, IP: r[colIP].S, API: r[colAPI].S,
			Latency: r[colLatency].I, Fail: r[colFail].S, Log: r[colLog].S,
		}
	}
	body, err := json.Marshal(recs)
	if err != nil {
		panic(err) // Records hold only strings and integers
	}
	return body
}

// ---- set-up ----

// setup opens the cluster and runs one untimed warm-up round (one
// batch, one archive pass, one query). It is repeated setupRuns times,
// each on a fresh cluster; the last one is kept and the median time is
// setup_s.
func (b *bench) setup() error {
	const setupRuns = 3
	warm := b.extraBatch(warmupStartMS, b.seed*1000+999, b.sh.batchRows)
	wp := pred{Tenant: warm.rows[0][colTenant].I, MinTS: 0, MaxTS: allTimeMS, MinLat: -1, Count: true}
	want := int64(0)
	for _, r := range warm.rows {
		if r[colTenant].I == wp.Tenant {
			want++
		}
	}
	var times []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := b.open(i); err != nil {
			return err
		}
		if err := b.appendBatch(warm); err != nil {
			return fmt.Errorf("warm-up append: %w", err)
		}
		if err := b.c.Flush(); err != nil {
			return fmt.Errorf("warm-up flush: %w", err)
		}
		got, err := b.runQuery(wp, "cluster.query_warmup")
		if err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if got.Count != want {
			b.problem("warm-up query counted %d rows, want %d", got.Count, want)
		}
		if i < setupRuns-1 {
			b.close()
		}
	}
	b.counters = map[string]float64{} // warm-up queries are not measured
	for _, r := range warm.rows {
		b.led.add(warm.seq, r)
	}
	b.metrics["setup_s"] = median(times)
	b.note("setup: %d runs, %.3f s median (open, leader election, warm-up round)", setupRuns, median(times))
	return nil
}

// ---- measurement helpers ----

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// pcts prints a latency sample's percentiles for the report; only the
// medians are gated metrics (see README: tails are not steady here).
func pcts(v []float64) string {
	return fmt.Sprintf(" n %d p50 %.3f p90 %.3f p99 %.3f max %.3f", len(v),
		quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99), quantile(v, 1))
}

func fmtList(v []float64) string {
	var sb bytes.Buffer
	for _, x := range v {
		fmt.Fprintf(&sb, " %.0f", x)
	}
	return sb.String()
}

// ---- timed phases ----

// writeResult is what the write phase measured. Rates are per round
// (appends plus the round's archive pass), so the run reports their
// median and a burst of outside load moves one round, not the result.
type writeResult struct {
	rows      int64
	wall      time.Duration
	appends   []float64 // ms per acknowledged append
	passes    []float64 // ms per archive pass
	rowsPerS  []float64 // per round
	cpuPerRow []float64 // µs per round
}

// writePhase appends every round with the workload's writers (closed
// loop), and after each round pauses them and archives with one timed
// Cluster.Flush. Each round's inputs are made before its clock starts.
func (b *bench) writePhase(src *rowSource) writeResult {
	var res writeResult
	g0, b0 := b.c.CoalesceStats()
	t0 := time.Now()
	lats := make([][]float64, b.sh.writers)
	fails := make([]int64, b.sh.writers)
	for r := 0; r < src.rounds(); r++ {
		round := src.round()
		r0, c0 := time.Now(), cpuTime()
		var wg sync.WaitGroup
		for w := range round {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, bt := range round[w] {
					end := bt.seq + int64(len(bt.rows))
					b.sent.Store(end)
					ts := time.Now()
					if err := b.appendBatch(bt); err != nil {
						fails[w]++
						if fails[w] == 1 {
							fmt.Fprintf(os.Stderr, "perfbench: append: %v\n", err)
						}
						bt.rows = nil // not acknowledged: not in the ledger
						continue
					}
					lats[w] = append(lats[w], msOf(time.Since(ts)))
					b.acked.Store(end)
				}
			}(w)
		}
		wg.Wait()
		d, err := b.flush()
		roundWall, roundCPU := time.Since(r0), cpuTime()-c0
		var rows int64
		for _, ws := range round {
			for _, bt := range ws {
				for i, row := range bt.rows {
					b.led.add(bt.seq+int64(i), row)
				}
				rows += int64(len(bt.rows))
			}
		}
		res.rows += rows
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: flush: %v\n", err)
			continue
		}
		res.passes = append(res.passes, msOf(d))
		res.rowsPerS = append(res.rowsPerS, float64(rows)/roundWall.Seconds())
		res.cpuPerRow = append(res.cpuPerRow, float64(roundCPU.Microseconds())/float64(rows))
	}
	res.wall = time.Since(t0)
	g1, b1 := b.c.CoalesceStats()
	b.counters["coalesce.groups"] += float64(g1 - g0)
	b.counters["coalesce.batches"] += float64(b1 - b0)
	for w := range lats {
		res.appends = append(res.appends, lats[w]...)
		b.attempted += int64(len(lats[w])) + fails[w]
		b.failed += fails[w]
	}
	b.counters["write.rows"] += float64(res.rows)
	return res
}

// readResult is what one read phase measured; rates are per pass over
// the query set.
type readResult struct {
	lat         []float64 // ms per query
	wall        time.Duration
	perS        []float64 // queries per second of query time, per pass
	cpuPerQuery []float64 // µs per pass
}

func (r *readResult) add(o readResult) {
	r.lat = append(r.lat, o.lat...)
	r.wall += o.wall
	r.perS = append(r.perS, o.perS...)
	r.cpuPerQuery = append(r.cpuPerQuery, o.cpuPerQuery...)
}

// readPhase runs the queries passes times with one closed-loop client
// and checks every answer against the ledger. The "cold" phase empties
// every worker's caches before each query (untimed); "warm" and the
// untimed "prime" pass do not.
func (b *bench) readPhase(name string, preds []pred, want []answer, passes int) readResult {
	var res readResult
	cold := name == "cold"
	spanName := "cluster.query"
	if cold {
		spanName = "cluster.query_cold"
	}
	h0, m0 := b.cacheStats()
	s0 := b.store.snapshot()
	var overlap float64
	for pass := 0; pass < passes; pass++ {
		var busy, wall time.Duration
		n := 0
		for i, p := range preds {
			if cold {
				b.purgeCaches()
			}
			g0 := b.store.getNS.Load()
			t0 := time.Now()
			c0 := cpuTime()
			got, err := b.runQuery(p, spanName)
			d := time.Since(t0)
			busy += cpuTime() - c0
			b.attempted++
			if err != nil {
				b.failed++
				fmt.Fprintf(os.Stderr, "perfbench: query %q: %v\n", p.sql(), err)
				continue
			}
			res.lat = append(res.lat, msOf(d))
			wall += d
			n++
			if !b.sh.http {
				b.countCandidates(p)
			}
			overlap += float64(b.store.getNS.Load()-g0) / float64(d)
			if got != want[i] {
				b.problem("%s query %q: got count %d digest %x, ledger has count %d digest %x",
					name, p.sql(), got.Count, got.Digest, want[i].Count, want[i].Digest)
			}
		}
		res.wall += wall
		if n > 0 {
			res.perS = append(res.perS, float64(n)/wall.Seconds())
			res.cpuPerQuery = append(res.cpuPerQuery, float64(busy.Microseconds())/float64(n))
		}
	}
	h1, m1 := b.cacheStats()
	ds := b.store.snapshot().sub(s0)
	n := float64(len(res.lat))
	if cold {
		b.counters["cold.queries"] += n
		b.counters["cold.cache_misses"] += float64(m1 - m0)
		b.counters["cold.oss_gets"] += float64(ds.Gets)
		b.counters["cold.oss_get_bytes"] += float64(ds.GetBytes)
		b.counters["cold.oss_get_ns"] += float64(ds.GetNS)
		b.counters["cold.get_overlap_sum"] += overlap
	} else if name == "warm" {
		b.counters["warm.queries"] += n
		b.counters["warm.cache_hits"] += float64(h1 - h0)
		b.counters["warm.cache_misses"] += float64(m1 - m0)
	}
	return res
}

// verifyPreds is one COUNT(*) over each tenant's whole range, with the
// ledger's answers: every tenant id the generator can draw, so the set
// does not depend on the seed, and every other tenant in the ledger.
func (b *bench) verifyPreds() ([]pred, []answer) {
	tenants := make([]int64, 0, b.sh.tenants)
	for t := 0; t < b.sh.tenants; t++ {
		tenants = append(tenants, int64(t))
	}
	for t := range b.led.byTenant {
		if t < 0 || t >= int64(b.sh.tenants) {
			tenants = append(tenants, t)
		}
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i] < tenants[j] })
	preds := make([]pred, len(tenants))
	want := make([]answer, len(tenants))
	for i, t := range tenants {
		preds[i] = pred{Tenant: t, MinTS: 0, MaxTS: allTimeMS, MinLat: -1, Count: true}
		want[i] = answer{Count: b.led.tenantRows(t)}
	}
	return preds, want
}

// sixShapePreds is the paper's query set over the written history
// (workload.GenerateQueries), with the ledger's answers.
func (b *bench) sixShapePreds() ([]pred, []answer) {
	specs := workload.GenerateQueries(workload.QuerySetConfig{
		Tenants: b.sh.queryTenants, PerTenant: 6,
		HistoryStartMS: histStartMS, HistoryEndMS: histEndMS, Seed: b.seed,
	})
	preds := make([]pred, len(specs))
	want := make([]answer, len(specs))
	for i, s := range specs {
		preds[i] = pred{Tenant: s.Tenant, MinTS: s.StartMS, MaxTS: s.EndMS, IP: s.IP, MinLat: s.MinLat, Fail: s.Fail}
		want[i] = b.led.answer(preds[i], 1<<62)
	}
	return preds, want
}

// checkArchive asserts the ingest invariants after the last pass: every
// acknowledged row is archived exactly once, none is resident, the
// apply path dropped nothing, and each tenant's catalog row count is
// the ledger's.
func (b *bench) checkArchive() {
	st := b.c.Stats()
	if st.ResidentRows != 0 {
		b.problem("%d rows still resident after the last pass", st.ResidentRows)
	}
	if st.ArchivedRows+st.ResidentRows != b.led.rows {
		b.problem("archived %d + resident %d rows, ledger acknowledged %d", st.ArchivedRows, st.ResidentRows, b.led.rows)
	}
	if a := b.c.ApplyStats(); a.Lost() {
		b.problem("apply path dropped acknowledged rows: %+v", a)
	}
	for t, rows := range b.led.byTenant {
		if got, _ := b.c.TenantUsage(t); got != int64(len(rows)) {
			b.problem("tenant %d: catalog holds %d rows, ledger %d", t, got, len(rows))
		}
	}
}

// waitApplied waits until the serving replicas have applied every row
// the ledger holds: an acknowledgement comes at quorum commit, before
// the replica that serves reads applies the rows.
func (b *bench) waitApplied() {
	deadline := time.Now().Add(5 * time.Second)
	for b.c.ApplyStats().AppliedRows < b.led.rows {
		if time.Now().After(deadline) {
			b.problem("%d acknowledged rows, %d applied after 5 s", b.led.rows, b.c.ApplyStats().AppliedRows)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// checkResident checks queries over rows still in the row store: it
// appends one batch outside the history, waits until the serving
// replicas have applied every acknowledged row, and checks a COUNT(*)
// over each of the residentTenants hottest tenants, whose archived rows
// and resident rows it counts together, against the ledger. Then it
// archives the batch. It is not timed.
func (b *bench) checkResident() error {
	const residentTenants = 20
	bt := b.extraBatch(residentStartMS, b.seed*1000+998, b.sh.batchRows)
	if err := b.appendExtra(bt.rows); err != nil {
		return fmt.Errorf("resident batch: %w", err)
	}
	b.waitApplied()
	if b.c.Stats().ResidentRows == 0 {
		b.problem("resident batch: no row in the row store")
	}
	for t := int64(0); t < residentTenants; t++ {
		p := pred{Tenant: t, MinTS: 0, MaxTS: allTimeMS, MinLat: -1, Count: true}
		got, err := b.runQuery(p, "cluster.query_resident")
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: query %q: %v\n", p.sql(), err)
			continue
		}
		if want := b.led.tenantRows(t); got.Count != want {
			b.problem("resident query %q: got count %d, ledger has %d", p.sql(), got.Count, want)
		}
	}
	return b.c.Flush()
}

// ---- the run ----

func (b *bench) run() error {
	b.led = newLedger()
	b.metrics = map[string]float64{}
	b.counters = map[string]float64{}
	src := b.newRowSource()
	if err := b.setup(); err != nil {
		return err
	}
	defer b.close()
	if b.sh.overlapProbe {
		if err := b.pickOverlapTenants(); err != nil {
			return err
		}
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	done := make(chan []float64, 1)
	if b.sh.readRate > 0 {
		go func() { done <- b.openLoopReader(src) }()
	}
	wr := b.writePhase(src)
	var openLoop []float64
	if b.sh.readRate > 0 {
		openLoop = <-done
		b.checkOpenLoop()
	} else if err := b.checkResident(); err != nil {
		return err
	}

	var preds []pred
	var want []answer
	if b.sh.sixShapes {
		preds, want = b.sixShapePreds()
		b.store.slow.Store(true) // reads now pay the object-store latency model
	} else {
		b.checkArchive()
		preds, want = b.verifyPreds()
	}
	var cold, warm readResult
	for r := 0; r < b.sh.readRounds; r++ {
		cold.add(b.readPhase("cold", preds, want, 1))
		b.readPhase("prime", preds, want, 1)
		warm.add(b.readPhase("warm", preds, want, b.sh.warmPasses))
	}
	b.store.slow.Store(false)

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b.counters["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	b.counters["runtime.gc_pause_ns"] = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	live, err := b.store.liveBytes()
	if err != nil {
		return err
	}
	heap := heapAfterGC()
	st := b.c.Stats()
	b.counters["meta.blocks"] = float64(st.ArchivedBlocks)
	b.counters["meta.tenants"] = float64(st.Tenants)
	b.counters["oss.max_inflight_reads"] = float64(b.store.maxInflight.Load())

	m := b.metrics
	m["ingest_rows_per_s"] = median(wr.rowsPerS)
	m["append_p50_ms"] = quantile(wr.appends, 0.5)
	m["stored_bytes_per_input_byte"] = float64(live) / float64(b.led.inputBytes)
	m["cpu_us_per_row"] = median(wr.cpuPerRow)
	m["queries_per_s"] = median(warm.perS)
	m["query_p50_ms"] = quantile(warm.lat, 0.5)
	if openLoop != nil {
		m["query_p50_ms"] = quantile(openLoop, 0.5)
	}
	m["query_cold_p50_ms"] = quantile(cold.lat, 0.5)
	m["cpu_us_per_query"] = median(warm.cpuPerQuery)
	b.note("write: %d rows in %d appends over %d archive passes, %.2f s; pass p50 %.1f ms",
		wr.rows, len(wr.appends), len(wr.passes), wr.wall.Seconds(), quantile(wr.passes, 0.5))
	b.note("round rows/s: %s", fmtList(wr.rowsPerS))
	if b.sh.overlapProbe {
		b.note("overlap probe: %d of %d passes counted tenant %d's new rows twice", b.ov.fail, len(wr.passes), b.ov.a)
	}
	b.note("append ms:%s", pcts(wr.appends))
	b.note("warm query ms:%s", pcts(warm.lat))
	b.note("cold query ms:%s", pcts(cold.lat))
	b.note("cold: %d queries, %.2f s; warm: %d queries, %.2f s; stored %d B for %d input B",
		len(cold.lat), cold.wall.Seconds(), len(warm.lat), warm.wall.Seconds(), live, b.led.inputBytes)

	if b.tr != nil {
		if err := b.probe(b.newRowSource().round(), preds); err != nil {
			return err
		}
	}
	if err := b.c.Flush(); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	b.checkArchive()
	b.counters["acked.rows"] = float64(b.led.rows)
	b.counters["apply.rows"] = float64(b.c.ApplyStats().AppliedRows)

	// The cluster's live heap is what closing it frees, less the objects
	// it stores on the way down: the object store and the ledger stay
	// reachable across both measurements.
	b.close()
	live2, err := b.store.liveBytes()
	if err != nil {
		return err
	}
	after := heapAfterGC()
	m["heap_live_mb"] = (float64(heap) - float64(after) + float64(live2-live)) / (1 << 20)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // diagnostic only
	b.note("heap: %d B with the cluster, %d B after closing it; store %d B then %d B; max RSS %d MB",
		heap, after, live, live2, ru.Maxrss>>10)
	return nil
}

// ---- serve: open-loop reader ----

type openLoopQuery struct {
	p            pred
	ackedAtSend  int64
	sentAtReturn int64
	got          int64
	err          error
}

// openLoopReader sends readQueries COUNT(*) queries at readRate per
// second while the writer runs, each over a window from two archive
// rounds behind the write head to the end of the history: rows still in
// the row store and rows archived by the last passes. Latency counts
// from when each query was due, so a stall also delays the queries
// behind it.
func (b *bench) openLoopReader(src *rowSource) []float64 {
	zipf := workload.NewZipfian(b.sh.tenants, b.sh.theta, b.seed*1000+501)
	interval := time.Duration(float64(time.Second) / b.sh.readRate)
	lat := make([]float64, 0, b.sh.readQueries)
	late := make([]float64, 0, b.sh.readQueries)
	t0 := time.Now()
	for i := 0; i < b.sh.readQueries; i++ {
		// Wait for the due time outside any archive pass; a pass shifts
		// the rest of the schedule by its length.
		var due time.Time
		for {
			b.gate.RLock()
			due = t0.Add(time.Duration(i)*interval + b.paused)
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			b.gate.RUnlock()
			time.Sleep(wait)
		}
		from := b.sent.Load() - int64(2*b.sh.roundRows)
		if from < 0 {
			from = 0
		}
		q := openLoopQuery{p: pred{
			Tenant: int64(zipf.Next()), MinTS: src.tsAt(from), MaxTS: histEndMS, MinLat: -1, Count: true,
		}}
		q.ackedAtSend = b.acked.Load()
		late = append(late, msOf(time.Since(due)))
		var a answer
		a, q.err = b.runQuery(q.p, "")
		q.sentAtReturn = b.sent.Load()
		b.gate.RUnlock()
		q.got = a.Count
		if q.err == nil {
			lat = append(lat, msOf(time.Since(due)))
		}
		b.openLoop = append(b.openLoop, q)
	}
	b.note("open-loop reader: %d queries at %.0f/s, generator late p50 %.2f ms p99 %.2f ms max %.2f ms",
		len(late), b.sh.readRate, quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	b.note("open-loop query ms:%s", pcts(lat))
	return lat
}

// checkOpenLoop holds each open-loop answer between the matching rows
// acknowledged before the query was sent, less the writer's last
// acknowledged batch, and the matching rows sent before it returned.
// The serving replica applies a commit after the writer's
// acknowledgement, so a query can miss the rows of the batch just
// acknowledged; such stale reads are counted and reported. A query that
// misses any older row is wrong.
func (b *bench) checkOpenLoop() {
	stale, maxMissed := 0, int64(0)
	for _, q := range b.openLoop {
		b.attempted++
		if q.err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: query %q: %v\n", q.p.sql(), q.err)
			continue
		}
		lo := b.led.answer(q.p, q.ackedAtSend-int64(b.sh.batchRows)).Count
		hi := b.led.answer(q.p, q.sentAtReturn).Count
		if q.got < lo || q.got > hi {
			b.problem("open-loop query %q counted %d rows, want %d..%d", q.p.sql(), q.got, lo, hi)
		}
		if acked := b.led.answer(q.p, q.ackedAtSend).Count; q.got < acked {
			stale++
			maxMissed = max(maxMissed, acked-q.got)
		}
	}
	b.note("open-loop reader: %d of %d queries missed rows acknowledged before they were sent, at most %d",
		stale, len(b.openLoop), maxMissed)
}

// traceHandler records an httpapi span around each request, linked to
// the client span named in the request's headers.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Req"), 10, 64)
		rows, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Rows"), 10, 64)
		name := "httpapi.query"
		if r.URL.Path == "/append" {
			name = "httpapi.append"
		}
		sp := tr.begin(name, parent, req)
		h.ServeHTTP(w, r)
		sp.end(rows, r.ContentLength, 0)
	})
}

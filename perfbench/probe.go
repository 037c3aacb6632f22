package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"logstore"
	"logstore/internal/compress"
	"logstore/internal/flow"
	"logstore/internal/httpapi"
	"logstore/internal/logblock"
	"logstore/internal/query"
	"logstore/internal/schema"
	"logstore/internal/wal"
)

// Probe sizes: enough calls per layer for a steady median, few enough to
// keep the traced run within a few seconds of the untraced one.
const (
	probeBatches = 40
	probeQueries = 200
	probeBlocks  = 300
	probeSyncs   = 100
)

// probe times the benchmark's own calls into the layers below the
// workload's client path, on the workload's data. It runs only in the
// traced run, after the timed phases. Rows it appends join the ledger.
func (b *bench) probe(round [][]*batch, preds []pred) error {
	if len(preds) > probeQueries {
		preds = preds[:probeQueries]
	}
	for _, p := range preds {
		sp := b.tr.begin("query.parse", 0, b.reqSeq.Add(1))
		_, err := query.Parse(p.sql())
		sp.end(0, 0, 0)
		if err != nil {
			return fmt.Errorf("parse %q: %w", p.sql(), err)
		}
	}
	if err := b.probeBlocks(round); err != nil {
		return err
	}
	if err := b.probeWAL(); err != nil {
		return err
	}
	if err := b.probeWorkers(preds); err != nil {
		return err
	}
	// The workload's own client path skipped one of the two front ends;
	// drive that one here, so every workload reports both.
	if b.sh.http {
		return b.probeCluster(preds)
	}
	return b.probeHTTP(preds)
}

// probeBlocks replays archiving and scanning on one round's rows, taken
// from the inputs: each tenant's rows become one LogBlock (Build, Pack),
// each column's payload is compressed on its own, and the packed block
// is opened and matched with a latency filter.
func (b *bench) probeBlocks(round [][]*batch) error {
	sch := b.c.TableSchema()
	byTenant := map[int64][]logstore.Row{}
	for _, ws := range round {
		for _, bt := range ws {
			for _, r := range bt.rows {
				byTenant[r[colTenant].I] = append(byTenant[r[colTenant].I], r)
			}
		}
	}
	tenants := make([]int64, 0, len(byTenant))
	for t := range byTenant {
		tenants = append(tenants, t)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i] < tenants[j] })
	if len(tenants) > probeBlocks {
		tenants = tenants[:probeBlocks]
	}
	for _, t := range tenants {
		rows := byTenant[t]
		req := b.reqSeq.Add(1)
		sp := b.tr.begin("logblock.build", 0, req)
		built, err := logblock.Build(sch, rows, logblock.BuildOptions{})
		sp.end(int64(len(rows)), 0, 1)
		if err != nil {
			return fmt.Errorf("build tenant %d: %w", t, err)
		}
		sp = b.tr.begin("logblock.pack", 0, req)
		packed, err := built.Pack()
		sp.end(int64(len(rows)), int64(len(packed)), 1)
		if err != nil {
			return fmt.Errorf("pack tenant %d: %w", t, err)
		}
		for col := range sch.Columns {
			codec, payload := columnPayload(rows, col, sch.Columns[col].Type)
			sp = b.tr.begin("compress.compress", 0, req)
			out, err := compress.Compress(codec, payload)
			sp.end(int64(len(rows)), int64(len(out)), 1)
			if err != nil {
				return fmt.Errorf("compress column %d: %w", col, err)
			}
		}
		sp = b.tr.begin("logblock.open", 0, req)
		r, err := logblock.OpenReader(logblock.BytesFetcher(packed))
		sp.end(0, int64(len(packed)), 1)
		if err != nil {
			return fmt.Errorf("open tenant %d block: %w", t, err)
		}
		q, err := query.Parse(pred{Tenant: t, MinTS: 0, MaxTS: allTimeMS, MinLat: 100}.sql())
		if err != nil {
			return err
		}
		var st query.ExecStats
		sp = b.tr.begin("query.match", 0, req)
		matched, err := query.MatchBlock(r, q, query.ExecOptions{DataSkipping: true}, &st)
		sp.end(0, 0, 1)
		if err != nil {
			return fmt.Errorf("match tenant %d block: %w", t, err)
		}
		sp = b.tr.begin("query.materialize", 0, req)
		got, err := query.Materialize(r, matched, query.EffectiveColumns(q, sch))
		sp.end(int64(len(got)), 0, 1)
		if err != nil {
			return fmt.Errorf("materialize tenant %d block: %w", t, err)
		}
	}
	return nil
}

// columnPayload is one column of rows as a flat payload with the codec
// the block builder picks for its type: little-endian int64s with the
// speed codec, concatenated strings with the default codec.
func columnPayload(rows []logstore.Row, col int, typ schema.ColumnType) (compress.Codec, []byte) {
	var buf []byte
	for _, r := range rows {
		if typ == schema.Int64 {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r[col].I))
		} else {
			buf = append(buf, r[col].S...)
		}
	}
	if typ == schema.Int64 {
		return compress.LZ4, buf
	}
	return compress.Default, buf
}

// probeWAL times the device's own write-ahead-log cost: appends of a
// batch-sized record, each followed by an fsync, in a side directory on
// the same disk as the workload's data.
func (b *bench) probeWAL() error {
	dir := filepath.Join(b.workdir, fmt.Sprintf("walprobe-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp := b.tr.begin("wal.open", 0, b.reqSeq.Add(1))
	l, err := wal.Open(dir, wal.Options{})
	sp.end(0, 0, 0)
	if err != nil {
		return fmt.Errorf("wal open: %w", err)
	}
	record := make([]byte, 20<<10) // about one 200-row batch
	for i := 0; i < probeSyncs; i++ {
		req := b.reqSeq.Add(1)
		sp := b.tr.begin("wal.append", 0, req)
		_, err := l.Append(record)
		sp.end(0, int64(len(record)), 1)
		if err != nil {
			_ = l.Close() // the append or sync error is the one reported
			return fmt.Errorf("wal append: %w", err)
		}
		sp = b.tr.begin("wal.sync", 0, req)
		err = l.Sync()
		sp.end(0, 0, 1)
		if err != nil {
			_ = l.Close() // the append or sync error is the one reported
			return fmt.Errorf("wal sync: %w", err)
		}
	}
	return l.Close()
}

// probeWorkers calls the worker layer directly: appends split into
// per-shard sub-batches by the route table and shard owners, and the
// real-time and archived halves of each query, whose answers together
// must match the ledger. A batch is one operation and so are a query's
// two halves, so the number of operations does not depend on how the
// seed's rows fall on shards.
func (b *bench) probeWorkers(preds []pred) error {
	rt := b.c.RouteTable()
	rng := rand.New(rand.NewSource(b.seed))
	for k := 0; k < probeBatches; k++ {
		bt := b.extraBatch(probeStartMS+int64(k)*100_000, b.seed*1000+700+int64(k), b.sh.batchRows)
		byShard := map[flow.ShardID][]logstore.Row{}
		for _, r := range bt.rows {
			s, ok := rt.PickShard(flow.TenantID(r[colTenant].I), rng.Float64())
			if !ok {
				continue // tenant not routed yet; only the broker registers tenants
			}
			byShard[s] = append(byShard[s], r)
		}
		req := b.reqSeq.Add(1)
		b.attempted++
		failed := false
		for s, rows := range byShard {
			owner, ok := b.c.ShardOwner(s)
			if !ok {
				return fmt.Errorf("shard %d has no owner", s)
			}
			w, ok := b.c.Worker(owner)
			if !ok {
				return fmt.Errorf("worker %d missing", owner)
			}
			sp := b.tr.begin("worker.append", 0, req)
			err := w.AppendTrusted(s, rows)
			sp.end(int64(len(rows)), 0, 0)
			if err != nil {
				failed = true
				fmt.Fprintf(os.Stderr, "perfbench: worker append: %v\n", err)
				continue
			}
			for _, r := range rows {
				b.led.add(bt.seq, r)
			}
		}
		if failed {
			b.failed++
		}
	}
	b.waitApplied() // the real-time half reads the rows just appended
	ids := b.c.WorkerIDs()
	for i, p := range preds {
		q, err := query.Parse(p.sql())
		if err != nil {
			return err
		}
		req := b.reqSeq.Add(1)
		b.attempted++
		failed := false
		var count int64
		var logs []string
		add := func(res *query.Result) {
			count += res.Count
			for _, r := range res.Rows {
				logs = append(logs, r[0].S)
			}
		}
		shards := make([]flow.ShardID, 0, len(rt[flow.TenantID(p.Tenant)]))
		for s := range rt[flow.TenantID(p.Tenant)] {
			shards = append(shards, s)
		}
		sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
		for _, s := range shards {
			owner, _ := b.c.ShardOwner(s)
			w, ok := b.c.Worker(owner)
			if !ok {
				continue
			}
			sp := b.tr.begin("worker.query_realtime", 0, req)
			res, err := w.QueryRealtime(s, q)
			sp.end(0, 0, 0)
			if err != nil {
				failed = true
				fmt.Fprintf(os.Stderr, "perfbench: realtime query: %v\n", err)
				continue
			}
			add(res)
		}
		var paths []string
		for _, blk := range b.c.TenantBlocks(p.Tenant) {
			if blk.MaxTS >= p.MinTS && blk.MinTS <= p.MaxTS {
				paths = append(paths, blk.Path)
			}
		}
		w, ok := b.c.Worker(ids[i%len(ids)])
		if !ok {
			return fmt.Errorf("worker %d missing", ids[i%len(ids)])
		}
		sp := b.tr.begin("worker.query_blocks", 0, req)
		res, err := w.QueryBlocks(paths, q, query.ExecOptions{DataSkipping: true})
		sp.end(0, 0, int64(len(paths)))
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "perfbench: block query: %v\n", err)
		}
		if failed {
			b.failed++
			continue
		}
		add(res)
		if got, want := answerOf(p, count, logs), b.led.answer(p, 1<<62); got != want {
			b.problem("worker query %q: got count %d digest %x, ledger has count %d digest %x",
				p.sql(), got.Count, got.Digest, want.Count, want.Digest)
		}
	}
	return nil
}

// probeHTTP drives the httpapi handler in process (no socket) with
// appends of fresh rows and the workload's queries.
func (b *bench) probeHTTP(preds []pred) error {
	h := traceHandler(b.tr, httpapi.Handler(b.c))
	serve := func(path string, body []byte, rows int) (int, string) {
		req := b.reqSeq.Add(1)
		sp := b.tr.begin("client."+strings.TrimPrefix(path, "/"), 0, req)
		hr := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
		hr.Header.Set("X-Perfbench-Span", fmt.Sprint(sp.id()))
		hr.Header.Set("X-Perfbench-Req", fmt.Sprint(req))
		hr.Header.Set("X-Perfbench-Rows", fmt.Sprint(rows))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hr)
		sp.end(int64(rows), int64(len(body)), 0)
		return rec.Code, rec.Body.String()
	}
	for k := 0; k < probeBatches; k++ {
		bt := b.extraBatch(probeStartMS+int64(probeBatches+k)*100_000, b.seed*1000+800+int64(k), b.sh.batchRows)
		code, msg := serve("/append", encodeBatch(bt.rows), len(bt.rows))
		b.attempted++
		if code != http.StatusOK {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: http append: %d %s\n", code, msg)
			continue
		}
		for _, r := range bt.rows {
			b.led.add(bt.seq, r)
		}
	}
	for _, p := range preds {
		code, msg := serve("/query", []byte(p.sql()), 0)
		b.attempted++
		if code != http.StatusOK {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: http query: %d %s\n", code, msg)
		}
	}
	return nil
}

// probeCluster drives Cluster.Append and Cluster.Query directly, for
// the workload whose own client path is HTTP.
func (b *bench) probeCluster(preds []pred) error {
	for k := 0; k < probeBatches; k++ {
		bt := b.extraBatch(probeStartMS+int64(probeBatches+k)*100_000, b.seed*1000+800+int64(k), b.sh.batchRows)
		sp := b.tr.begin("cluster.append", 0, b.reqSeq.Add(1))
		err := b.c.Append(bt.rows...)
		sp.end(int64(len(bt.rows)), 0, 0)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: append: %v\n", err)
			continue
		}
		for _, r := range bt.rows {
			b.led.add(bt.seq, r)
		}
	}
	for _, p := range preds {
		sp := b.tr.begin("cluster.query", 0, b.reqSeq.Add(1))
		res, err := b.c.Query(p.sql())
		sp.end(0, 0, 0)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: query: %v\n", err)
			continue
		}
		b.foldStats(res)
		b.countCandidates(p)
	}
	return nil
}

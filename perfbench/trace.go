package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed benchmark call into a layer's public function.
// Spans of one client request share Req; Parent is the span that made
// the call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Items  int64  `json:"items,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, parent, req int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)),
	}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span with the work it covered.
func (o *openSpan) end(rows, bytes, items int64) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.s.Rows, o.s.Bytes, o.s.Items = rows, bytes, items
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// counterLine is the span file's last line: the counters the run read
// through the program's public APIs.
type counterLine struct {
	Counters map[string]float64 `json:"counters"`
}

// write stores every span, one JSON object per line, then the counters.
func (t *tracer) write(path string, counters map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the write error is the one reported
			return err
		}
	}
	t.mu.Unlock()
	if err := enc.Encode(counterLine{Counters: counters}); err != nil {
		_ = f.Close() // the write error is the one reported
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error is the one reported
		return err
	}
	return f.Close()
}

// readSpanFile loads a span file written by tracer.write.
func readSpanFile(path string) ([]span, map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var spans []span
	var counters map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var c counterLine
		if err := json.Unmarshal(line, &c); err == nil && c.Counters != nil {
			counters = c.Counters
			continue
		}
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if counters == nil {
		return nil, nil, fmt.Errorf("%s: no counters line", path)
	}
	return spans, counters, nil
}

// spanSet groups spans by name.
type spanSet map[string][]span

func (ss spanSet) durations(name string) []float64 {
	out := make([]float64, 0, len(ss[name]))
	for _, s := range ss[name] {
		out = append(out, float64(s.End-s.Start))
	}
	return out
}

// medianMS is the median duration of the named spans in ms.
func (ss spanSet) medianMS(name string) float64 { return median(ss.durations(name)) / 1e6 }

// meanUS is the mean duration of the named spans in µs.
func (ss spanSet) meanUS(name string) float64 {
	d := ss.durations(name)
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d)) / 1e3
}

func (ss spanSet) sum(name string, field func(span) int64) float64 {
	var total float64
	for _, s := range ss[name] {
		total += float64(field(s))
	}
	return total
}

// hitRatio is hits per lookup; a phase that made no lookups missed
// nothing, so it reads 1.
func hitRatio(hits, lookups float64) float64 {
	if lookups == 0 {
		return 1
	}
	return hits / lookups
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct {
	Name, Unit string
}

// perLayer lists the per-layer metrics in report order.
var perLayer = []layerMetric{
	{"httpapi.append_ms", "ms"}, {"httpapi.query_ms", "ms"}, {"httpapi.request_bytes_per_row", "B/row"},
	{"cluster.append_ms", "ms"}, {"cluster.query_ms", "ms"},
	{"worker.append_ms", "ms"}, {"worker.query_blocks_ms", "ms"}, {"worker.query_realtime_ms", "ms"},
	{"worker.group_factor", "batches/proposal"}, {"worker.proposals_per_1k_rows", "count"},
	{"worker.applied_rows_per_acked_row", "rows/row"},
	{"wal.sync_ms", "ms"},
	{"rowstore.resident_rows_peak", "rows"},
	{"builder.archive_pass_ms", "ms"}, {"builder.blocks_per_pass", "count"},
	{"builder.rows_per_block", "rows"}, {"builder.us_per_block", "us"},
	{"logblock.build_us_per_block", "us"}, {"logblock.pack_us_per_block", "us"},
	{"logblock.bytes_per_row", "B/row"}, {"compress.us_per_call", "us"}, {"logblock.open_us", "us"},
	{"query.match_us_per_block", "us"}, {"query.materialize_us_per_block", "us"},
	{"oss.puts_per_pass", "count"}, {"oss.put_bytes_per_pass", "B"}, {"oss.put_ms_per_pass", "ms"},
	{"oss.gets_per_query", "count"}, {"oss.get_bytes_per_query", "B"}, {"oss.get_ms_per_query", "ms"},
	{"prefetch.get_overlap", "ratio"},
	{"cache.mem_hit_ratio", "ratio"}, {"cache.mem_misses_per_query", "count"},
	{"meta.blocks_per_tenant", "count"}, {"meta.candidate_blocks_per_query", "count"},
	{"query.parse_us", "us"}, {"query.blocks_examined_per_query", "count"},
	{"query.blocks_skipped_sma_per_query", "count"}, {"query.index_lookups_per_query", "count"},
	{"query.column_blocks_scanned_per_query", "count"}, {"query.column_blocks_skipped_per_query", "count"},
	{"query.column_blocks_scanned_per_row_returned", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
}

// summarizeSpans turns spans and counters into the per-layer metrics.
func summarizeSpans(spans []span, c map[string]float64) map[string]float64 {
	ss := make(spanSet)
	for _, s := range spans {
		ss[s.Name] = append(ss[s.Name], s)
	}
	rows := func(s span) int64 { return s.Rows }
	bytes := func(s span) int64 { return s.Bytes }
	items := func(s span) int64 { return s.Items }
	passes := float64(len(ss["builder.pass"]))
	blocks := ss.sum("builder.pass", items)
	passNS := 0.0
	for _, d := range ss.durations("builder.pass") {
		passNS += d
	}
	cold := c["cold.queries"]
	stats := c["stats.queries"]
	warmLookups := c["warm.cache_hits"] + c["warm.cache_misses"]
	return map[string]float64{
		"httpapi.append_ms":                            ss.medianMS("httpapi.append"),
		"httpapi.query_ms":                             ss.medianMS("httpapi.query"),
		"httpapi.request_bytes_per_row":                div(ss.sum("httpapi.append", bytes), ss.sum("httpapi.append", rows)),
		"cluster.append_ms":                            ss.medianMS("cluster.append"),
		"cluster.query_ms":                             ss.medianMS("cluster.query"),
		"worker.append_ms":                             ss.medianMS("worker.append"),
		"worker.query_blocks_ms":                       ss.medianMS("worker.query_blocks"),
		"worker.query_realtime_ms":                     ss.medianMS("worker.query_realtime"),
		"worker.group_factor":                          div(c["coalesce.batches"], c["coalesce.groups"]),
		"worker.proposals_per_1k_rows":                 1000 * div(c["coalesce.groups"], c["write.rows"]),
		"worker.applied_rows_per_acked_row":            div(c["apply.rows"], c["acked.rows"]),
		"wal.sync_ms":                                  ss.medianMS("wal.sync"),
		"rowstore.resident_rows_peak":                  c["rowstore.resident_peak"],
		"builder.archive_pass_ms":                      ss.medianMS("builder.pass"),
		"builder.blocks_per_pass":                      div(blocks, passes),
		"builder.rows_per_block":                       div(ss.sum("builder.pass", rows), blocks),
		"builder.us_per_block":                         div(passNS/1e3, blocks),
		"logblock.build_us_per_block":                  ss.meanUS("logblock.build"),
		"logblock.pack_us_per_block":                   ss.meanUS("logblock.pack"),
		"logblock.bytes_per_row":                       div(ss.sum("logblock.pack", bytes), ss.sum("logblock.pack", rows)),
		"compress.us_per_call":                         ss.meanUS("compress.compress"),
		"logblock.open_us":                             ss.meanUS("logblock.open"),
		"query.match_us_per_block":                     ss.meanUS("query.match"),
		"query.materialize_us_per_block":               ss.meanUS("query.materialize"),
		"oss.puts_per_pass":                            div(c["pass.oss_puts"], passes),
		"oss.put_bytes_per_pass":                       div(c["pass.oss_put_bytes"], passes),
		"oss.put_ms_per_pass":                          div(c["pass.oss_put_ns"]/1e6, passes),
		"oss.gets_per_query":                           div(c["cold.oss_gets"], cold),
		"oss.get_bytes_per_query":                      div(c["cold.oss_get_bytes"], cold),
		"oss.get_ms_per_query":                         div(c["cold.oss_get_ns"]/1e6, cold),
		"prefetch.get_overlap":                         div(c["cold.get_overlap_sum"], cold),
		"cache.mem_hit_ratio":                          hitRatio(c["warm.cache_hits"], warmLookups),
		"cache.mem_misses_per_query":                   div(c["cold.cache_misses"], cold),
		"meta.blocks_per_tenant":                       div(c["meta.blocks"], c["meta.tenants"]),
		"meta.candidate_blocks_per_query":              div(c["meta.candidates"], stats),
		"query.parse_us":                               ss.meanUS("query.parse"),
		"query.blocks_examined_per_query":              div(c["stats.blocks_examined"], stats),
		"query.blocks_skipped_sma_per_query":           div(c["stats.blocks_skipped_sma"], stats),
		"query.index_lookups_per_query":                div(c["stats.index_lookups"], stats),
		"query.column_blocks_scanned_per_query":        div(c["stats.column_blocks_scanned"], stats),
		"query.column_blocks_skipped_per_query":        div(c["stats.column_blocks_skipped"], stats),
		"query.column_blocks_scanned_per_row_returned": div(c["stats.column_blocks_scanned"], c["stats.rows_returned"]),
		"runtime.gc_cycles":                            c["runtime.gc_cycles"],
		"runtime.gc_pause_ms":                          c["runtime.gc_pause_ns"] / 1e6,
	}
}

// median of a sample (0 for an empty one).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of a sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

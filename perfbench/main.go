// Command perfbench is LogStore's end-to-end benchmark. It drives an
// embedded cluster (for serve, the httpapi handler on a loopback
// listener) through one named workload with a fixed amount of work,
// checks every answer against a ledger of the rows it generated, and
// prints each metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload ingest --seed 1 --seconds 20 --trace 0
//
// --trace 1 runs the same workload with a span around each benchmark
// call into a layer, writes the spans to a file, and reports per-layer
// metrics instead of end-to-end ones. --summarize FILE re-prints the
// per-layer metrics of a span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []layerMetric{
	{"setup_s", "s"},
	{"ingest_rows_per_s", "rows/s"},
	{"append_p50_ms", "ms"},
	{"stored_bytes_per_input_byte", "B/B"},
	{"cpu_us_per_row", "us"},
	{"queries_per_s", "queries/s"},
	{"query_p50_ms", "ms"},
	{"query_cold_p50_ms", "ms"},
	{"cpu_us_per_query", "us"},
	{"heap_live_mb", "MB"},
}

// shapeFor returns a workload's input make-up for a run of the given
// nominal length. The rows written scale with seconds and the read
// passes are fixed, so a run does a fixed amount of work; on a 2-core
// machine it takes roughly that long.
func shapeFor(name string, seconds int) (shape, bool) {
	var sh shape
	switch name {
	case "ingest":
		sh = shape{tenants: 2000, theta: 0.99, batchRows: 200, writers: 2, roundRows: 20_000,
			rows: 10_000 * seconds, readRounds: 4, warmPasses: 4}
	case "query":
		sh = shape{tenants: 200, theta: 0.99, batchRows: 200, writers: 2, roundRows: 20_000,
			rows: 10_000 * seconds, sixShapes: true, queryTenants: 170, readRounds: 1, warmPasses: 30}
	case "serve":
		sh = shape{tenants: 2000, theta: 0.99, batchRows: 200, writers: 1, roundRows: 20_000,
			rows: 5_000 * seconds, http: true, durable: true, readRounds: 3, warmPasses: 3,
			readRate: 100, readQueries: 60 * seconds, overlapProbe: true}
	default:
		return sh, false
	}
	if sh.rows < sh.roundRows {
		sh.rows = sh.roundRows
	}
	sh.rows -= sh.rows % sh.roundRows
	return sh, true
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: ingest, query or serve")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 20, "nominal run length; sets the amount of work")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir   = flag.String("workdir", ".bench_build/work", "directory for WALs and span files")
		summarize = flag.String("summarize", "", "print the per-layer metrics of a span file and exit")
	)
	flag.Parse()
	if *summarize != "" {
		spans, counters, err := readSpanFile(*summarize)
		if err != nil {
			fatal("%v", err)
		}
		printLayer(summarizeSpans(spans, counters))
		return
	}
	sh, ok := shapeFor(*name, *seconds)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal("usage: perfbench --workload ingest|query|serve --seed N --seconds N --trace 0|1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal("%v", err)
	}
	b := &bench{seed: *seed, sh: sh, workdir: *workdir}
	if *trace == 1 {
		b.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	t0 := time.Now()
	if err := b.run(); err != nil {
		fatal("%s: %v", *name, err)
	}
	for _, line := range b.report {
		fmt.Println(line)
	}
	for _, p := range b.problems {
		fmt.Println("WRONG:", p)
	}
	out := result{
		Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range endToEnd {
		fmt.Printf("%-28s %14.4f %s\n", m.Name, b.metrics[m.Name], m.Unit)
	}
	if b.tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := b.tr.write(path, b.counters); err != nil {
			fatal("write spans: %v", err)
		}
		spans, counters, err := readSpanFile(path)
		if err != nil {
			fatal("%v", err)
		}
		layer := summarizeSpans(spans, counters)
		printLayer(layer)
		fmt.Printf("spans: %d in %s\n", len(spans), path)
		for _, m := range perLayer {
			out.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{b.metrics[m.Name], m.Unit}
		}
	}
	fmt.Printf("elapsed: %.1f s\n", time.Since(t0).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func printLayer(layer map[string]float64) {
	for _, m := range perLayer {
		fmt.Printf("%-46s %14.4f %s\n", m.Name, layer[m.Name], m.Unit)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

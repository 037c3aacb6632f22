package main

import (
	"fmt"
	"os"
	"strings"

	"logstore"
	"logstore/internal/flow"
	"logstore/internal/meta"
	"logstore/internal/workload"
)

// The overlap probe reads during every archive pass of serve, at a point
// where a known fault always shows: the builder registers a tenant's
// LogBlock in the catalog before it releases the row-store segment that
// holds the same rows, so a query in between counts them twice.
//
// Two probe tenants A < B on one shard get a row each before every pass.
// Their ids sort after every generated tenant, so in that shard's sealed
// segment A's LogBlock is committed just before B's, and the first object
// stored after A's is B's. Just before that put, A's block is registered
// and its rows are still in the segment; the probe then counts A's rows
// and compares the answer with the ledger. The tenants and rows do not
// depend on the seed, so the probe fails in every pass or in none.
const (
	overlapTenant0    = 1_000_000
	overlapCandidates = 64
	overlapStartMS    = histEndMS + 2*3600*1000 // outside every timed window
	overlapSeed       = 42
)

type overlapProbe struct {
	a, b    int64
	gen     *workload.Generator
	pending int64 // A's rows appended since the last pass
	// Set by the store hook during a pass.
	ran  bool
	got  int64
	err  error
	fail int // passes whose probe counted A's new rows twice
}

// pickOverlapTenants appends one row for each candidate probe tenant, so
// the broker routes them, and picks A and B from the route table.
func (b *bench) pickOverlapTenants() error {
	ov := &b.ov
	ov.gen = workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 1, Seed: overlapSeed, StartMS: overlapStartMS, StepMS: 1,
	})
	rows := make([]logstore.Row, overlapCandidates)
	for i := range rows {
		rows[i] = ov.gen.RowForTenant(overlapTenant0 + int64(i))
	}
	if err := b.appendExtra(rows); err != nil {
		return fmt.Errorf("overlap probe tenants: %w", err)
	}
	rt := b.c.RouteTable()
	shardOf := func(t int64) (flow.ShardID, bool) {
		routes := rt[flow.TenantID(t)]
		for s := range routes {
			return s, len(routes) == 1
		}
		return 0, false
	}
	ov.a = overlapTenant0
	ov.pending = 1
	sa, ok := shardOf(ov.a)
	if !ok {
		return fmt.Errorf("overlap probe tenant %d has no single route", ov.a)
	}
	for t := ov.a + 1; t < overlapTenant0+overlapCandidates; t++ {
		if s, ok := shardOf(t); ok && s == sa {
			ov.b = t
			return nil
		}
	}
	return fmt.Errorf("no overlap probe tenant shares shard %d with tenant %d", sa, ov.a)
}

// appendExtra appends rows outside the writers' stream through the
// workload's client path and adds them to the ledger. It counts as one
// operation.
func (b *bench) appendExtra(rows []logstore.Row) error {
	bt := &batch{seq: 1 << 41, rows: rows}
	if b.sh.http {
		bt.body = encodeBatch(rows)
	}
	b.attempted++
	if err := b.appendBatch(bt); err != nil {
		b.failed++
		return err
	}
	for _, r := range rows {
		b.led.add(bt.seq, r)
	}
	return nil
}

// appendOverlapRows gives A and B one row each before a pass.
func (b *bench) appendOverlapRows() error {
	ov := &b.ov
	rows := []logstore.Row{ov.gen.RowForTenant(ov.a), ov.gen.RowForTenant(ov.b)}
	if err := b.appendExtra(rows); err != nil {
		return fmt.Errorf("overlap probe append: %w", err)
	}
	ov.pending++
	return nil
}

// armOverlap sets the store hook that runs the probe query before the
// first put that follows A's LogBlock in the coming pass.
func (b *bench) armOverlap() {
	ov := &b.ov
	ov.ran, ov.got, ov.err = false, 0, nil
	prefixA := meta.TenantPrefix(b.c.TableSchema().Name, ov.a)
	p := pred{Tenant: ov.a, MinTS: 0, MaxTS: allTimeMS, MinLat: -1, Count: true}
	seenA := false
	hook := func(key string) {
		switch {
		case ov.ran:
		case seenA:
			ov.ran = true
			res, err := b.c.Query(p.sql())
			if err != nil {
				ov.err = err
				return
			}
			ov.got = res.Count
		case strings.HasPrefix(key, prefixA):
			seenA = true
		}
	}
	b.store.beforePut.Store(&hook)
}

// checkOverlap disarms the hook and checks the probe's answer: the
// ledger's count, or the known double count of the rows A received since
// the last pass (a failed operation), and nothing else.
func (b *bench) checkOverlap() {
	ov := &b.ov
	b.store.beforePut.Store(nil)
	want := b.led.tenantRows(ov.a)
	pending := ov.pending
	ov.pending = 0
	b.attempted++
	switch {
	case !ov.ran:
		b.problem("overlap probe: no object was stored after tenant %d's LogBlock in the pass", ov.a)
	case ov.err != nil:
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: overlap probe query: %v\n", ov.err)
	case ov.got == want:
	case ov.got == want+pending:
		b.failed++
		ov.fail++
	default:
		b.problem("overlap probe: tenant %d counted %d rows during a pass, ledger has %d", ov.a, ov.got, want)
	}
}

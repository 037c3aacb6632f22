package main

import (
	"testing"

	"logstore/internal/workload"
)

// ledgerFixture returns a ledger over generated rows, the query the test
// checks, and the log lines a correct program returns for it, found by a
// separate filter over the same rows.
func ledgerFixture(t *testing.T) (*ledger, pred, []string) {
	t.Helper()
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 5, Theta: 0.99, Seed: 7, StartMS: histStartMS, StepMS: 1000,
	})
	led := newLedger()
	rows := gen.Batch(2000)
	for i, r := range rows {
		led.add(int64(i), r)
	}
	p := pred{Tenant: 1, MinTS: histStartMS + 100_000, MaxTS: histStartMS + 1_500_000, MinLat: 20}
	var logs []string
	for _, r := range rows {
		if r[colTenant].I == p.Tenant && r[colTS].I >= p.MinTS && r[colTS].I <= p.MaxTS &&
			r[colLatency].I >= p.MinLat {
			logs = append(logs, r[colLog].S)
		}
	}
	if len(logs) < 10 {
		t.Fatalf("fixture matches only %d rows", len(logs))
	}
	return led, p, logs
}

func TestAnswerMatchesCorrectOutput(t *testing.T) {
	led, p, logs := ledgerFixture(t)
	want := led.answer(p, 1<<62)
	// Order must not matter.
	rev := make([]string, len(logs))
	for i, l := range logs {
		rev[len(logs)-1-i] = l
	}
	if got := answerOf(p, 0, rev); got != want {
		t.Fatalf("correct output %+v, ledger %+v", got, want)
	}
}

func TestAnswerCatchesDroppedAddedAlteredRow(t *testing.T) {
	led, p, logs := ledgerFixture(t)
	want := led.answer(p, 1<<62)
	cases := map[string][]string{
		"dropped": logs[1:],
		"added":   append(append([]string(nil), logs...), logs[0]),
		"altered": append([]string{logs[0] + "x"}, logs[1:]...),
	}
	for name, out := range cases {
		if got := answerOf(p, 0, out); got == want {
			t.Errorf("%s row: output %+v passes the check", name, got)
		}
	}
}

func TestCountCatchesDroppedAndAddedRow(t *testing.T) {
	led, p, logs := ledgerFixture(t)
	p.Count = true
	want := led.answer(p, 1<<62)
	if want.Count != int64(len(logs)) {
		t.Fatalf("ledger counts %d, filter %d", want.Count, len(logs))
	}
	for _, n := range []int64{want.Count - 1, want.Count + 1} {
		if got := answerOf(p, n, nil); got == want {
			t.Errorf("count %d passes the check for %d rows", n, want.Count)
		}
	}
}

func TestLedgerCatchesRowMissingFromLedger(t *testing.T) {
	// The check is two-sided: an acknowledged row the ledger failed to
	// record shows up as a mismatch too.
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Tenants: 5, Theta: 0.99, Seed: 7, StartMS: histStartMS, StepMS: 1000,
	})
	_, p, logs := ledgerFixture(t)
	short := newLedger()
	skipped := false
	for i, r := range gen.Batch(2000) {
		if !skipped && r[colLog].S == logs[0] && r[colTenant].I == p.Tenant {
			skipped = true
			continue
		}
		short.add(int64(i), r)
	}
	if got := answerOf(p, 0, logs); got == short.answer(p, 1<<62) {
		t.Fatal("a row missing from the ledger passes the check")
	}
}

func TestAnswerRespectsStreamPosition(t *testing.T) {
	led, p, _ := ledgerFixture(t)
	p.Count = true
	all := led.answer(p, 1<<62).Count
	if half := led.answer(p, 1000).Count; half <= 0 || half >= all {
		t.Fatalf("rows before position 1000: %d of %d", half, all)
	}
}

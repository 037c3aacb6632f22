package main

import (
	"fmt"
	"hash/fnv"

	"logstore"
	"logstore/internal/schema"
)

// Column positions in the request_log schema the generator writes.
const (
	colTenant = iota
	colTS
	colIP
	colAPI
	colLatency
	colFail
	colLog
)

// pred is one query in the form the ledger evaluates: the tenant, a
// closed ts window, and the optional ip, latency and fail predicates of
// the paper's query template.
type pred struct {
	Tenant       int64
	MinTS, MaxTS int64
	IP           string // "" = no ip predicate
	MinLat       int64  // < 0 = no latency predicate
	Fail         string // "" = no fail predicate
	Count        bool   // SELECT COUNT(*) instead of SELECT log
}

func (p pred) sql() string {
	sel := "log"
	if p.Count {
		sel = "COUNT(*)"
	}
	s := fmt.Sprintf("SELECT %s FROM request_log WHERE tenant_id = %d AND ts >= %d AND ts <= %d",
		sel, p.Tenant, p.MinTS, p.MaxTS)
	if p.IP != "" {
		s += fmt.Sprintf(" AND ip = '%s'", p.IP)
	}
	if p.MinLat >= 0 {
		s += fmt.Sprintf(" AND latency >= %d", p.MinLat)
	}
	if p.Fail != "" {
		s += fmt.Sprintf(" AND fail = '%s'", p.Fail)
	}
	return s
}

// answer is what the benchmark compares: the number of matching rows
// and an order-independent digest of the returned log lines (zero for
// COUNT(*) queries).
type answer struct {
	Count  int64
	Digest uint64
}

// logDigest hashes one returned log line; an answer's digest is the sum
// of its lines' hashes, so it ignores order and counts duplicates.
func logDigest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// splitmix64 finaliser: spreads fnv's low-entropy high bits so sums
	// of similar lines do not cancel.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// answerOf builds the answer from a program result: the count for a
// COUNT(*) query, else the returned log lines.
func answerOf(p pred, count int64, logs []string) answer {
	if p.Count {
		return answer{Count: count}
	}
	a := answer{Count: int64(len(logs))}
	for _, l := range logs {
		a.Digest += logDigest(l)
	}
	return a
}

// ledgerRow is one acknowledged row as the ledger keeps it. It holds no
// pointers, so the ledger adds nothing to the garbage collector's mark
// work in the measured process: strings are kept as interned ids, and
// the log line as its digest.
type ledgerRow struct {
	seq     int64 // position in the writer stream (serve bounds)
	ts      int64
	latency int64
	digest  uint64 // logDigest of the log line
	ip      uint16
	fail    uint16
}

// ledger holds every row the program acknowledged, per tenant, and
// answers queries by brute force over them. It shares no code with the
// program's query engine.
type ledger struct {
	byTenant   map[int64][]ledgerRow
	strs       map[string]uint16 // interned ip and fail values
	rows       int64
	inputBytes int64
}

func newLedger() *ledger {
	return &ledger{byTenant: make(map[int64][]ledgerRow), strs: make(map[string]uint16)}
}

// inputBytes is a row's size as a user supplied it: 8 bytes per integer
// cell plus the length of every string.
func inputBytes(r logstore.Row) int64 {
	var n int64
	for _, v := range r {
		if v.Kind == schema.Int64 {
			n += 8
		} else {
			n += int64(len(v.S))
		}
	}
	return n
}

// intern returns s's id; ids start at 1, so 0 never matches a value.
func (l *ledger) intern(s string) uint16 {
	id, ok := l.strs[s]
	if !ok {
		id = uint16(len(l.strs) + 1)
		l.strs[s] = id
	}
	return id
}

// add records an acknowledged row at stream position seq.
func (l *ledger) add(seq int64, r logstore.Row) {
	t := r[colTenant].I
	l.byTenant[t] = append(l.byTenant[t], ledgerRow{
		seq: seq, ts: r[colTS].I, latency: r[colLatency].I, digest: logDigest(r[colLog].S),
		ip: l.intern(r[colIP].S), fail: l.intern(r[colFail].S),
	})
	l.rows++
	l.inputBytes += inputBytes(r)
}

// answer evaluates p over the rows at stream positions below maxSeq.
func (l *ledger) answer(p pred, maxSeq int64) answer {
	var ip, fail uint16 // 0 = predicate absent
	if p.IP != "" {
		if ip = l.strs[p.IP]; ip == 0 {
			return answer{} // no row holds this value
		}
	}
	if p.Fail != "" {
		if fail = l.strs[p.Fail]; fail == 0 {
			return answer{}
		}
	}
	var a answer
	for i := range l.byTenant[p.Tenant] {
		r := &l.byTenant[p.Tenant][i]
		if r.seq >= maxSeq || r.ts < p.MinTS || r.ts > p.MaxTS ||
			(ip != 0 && r.ip != ip) || (p.MinLat >= 0 && r.latency < p.MinLat) ||
			(fail != 0 && r.fail != fail) {
			continue
		}
		a.Count++
		if !p.Count {
			a.Digest += r.digest
		}
	}
	return a
}

// tenantRows is the number of acknowledged rows of one tenant.
func (l *ledger) tenantRows(t int64) int64 { return int64(len(l.byTenant[t])) }

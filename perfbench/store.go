package main

import (
	"sync/atomic"
	"time"

	"logstore/internal/oss"
)

// timedStore is the benchmark's object store: an in-memory store behind
// a wrapper that counts and times every operation. Reads switch to a
// latency-simulating view of the same objects once slow is set, so a
// workload's set-up and preload pay no simulated sleeps.
type timedStore struct {
	mem  *oss.MemStore
	sim  *oss.SimStore
	slow atomic.Bool

	puts, putBytes, putNS atomic.Int64
	gets, getBytes, getNS atomic.Int64
	// inflight and maxInflight count reads in progress, the overlap the
	// prefetcher achieves.
	inflight, maxInflight atomic.Int64
	// beforePut, when set, is called with each key before it is stored.
	beforePut atomic.Pointer[func(key string)]
}

func newTimedStore(seed int64) *timedStore {
	mem := oss.NewMemStore()
	return &timedStore{mem: mem, sim: oss.NewSimStore(mem, oss.DefaultLatencyModel(), seed)}
}

// storeCounters is a snapshot of the store's counters.
type storeCounters struct {
	Puts, PutBytes, PutNS int64
	Gets, GetBytes, GetNS int64
}

func (s *timedStore) snapshot() storeCounters {
	return storeCounters{
		Puts: s.puts.Load(), PutBytes: s.putBytes.Load(), PutNS: s.putNS.Load(),
		Gets: s.gets.Load(), GetBytes: s.getBytes.Load(), GetNS: s.getNS.Load(),
	}
}

func (c storeCounters) sub(o storeCounters) storeCounters {
	return storeCounters{
		Puts: c.Puts - o.Puts, PutBytes: c.PutBytes - o.PutBytes, PutNS: c.PutNS - o.PutNS,
		Gets: c.Gets - o.Gets, GetBytes: c.GetBytes - o.GetBytes, GetNS: c.GetNS - o.GetNS,
	}
}

func (s *timedStore) reader() oss.Store {
	if s.slow.Load() {
		return s.sim
	}
	return s.mem
}

func (s *timedStore) beginRead() time.Time {
	if n := s.inflight.Add(1); n > 1 {
		for {
			m := s.maxInflight.Load()
			if n <= m || s.maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
	}
	return time.Now()
}

func (s *timedStore) endRead(t0 time.Time, n int) {
	s.getNS.Add(int64(time.Since(t0)))
	s.gets.Add(1)
	s.getBytes.Add(int64(n))
	s.inflight.Add(-1)
}

// liveBytes sums the sizes of every stored object.
func (s *timedStore) liveBytes() (int64, error) {
	infos, err := s.mem.List("")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, in := range infos {
		total += in.Size
	}
	return total, nil
}

func (s *timedStore) Put(key string, data []byte) error {
	if f := s.beforePut.Load(); f != nil {
		(*f)(key)
	}
	t0 := time.Now()
	var err error
	if s.slow.Load() {
		err = s.sim.Put(key, data)
	} else {
		err = s.mem.Put(key, data)
	}
	s.putNS.Add(int64(time.Since(t0)))
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t0 := s.beginRead()
	b, err := s.reader().Get(key)
	s.endRead(t0, len(b))
	return b, err
}

func (s *timedStore) GetRange(key string, off, size int64) ([]byte, error) {
	t0 := s.beginRead()
	b, err := s.reader().GetRange(key, off, size)
	s.endRead(t0, len(b))
	return b, err
}

func (s *timedStore) Head(key string) (oss.ObjectInfo, error) { return s.reader().Head(key) }

func (s *timedStore) List(prefix string) ([]oss.ObjectInfo, error) { return s.mem.List(prefix) }

func (s *timedStore) Delete(key string) error { return s.mem.Delete(key) }

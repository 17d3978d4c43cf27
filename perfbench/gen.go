package main

import (
	"math/rand"

	"ufork/internal/bench/ycsb"
	"ufork/internal/sim"
)

// arrival is one generated request: when it is due, relative to the start
// of the measured phase, and what it asks for. The workloads receive only
// these streams; everything random about the load is decided here.
type arrival struct {
	ID  int64    // unique across all streams of one run; 0 is reserved for preloaded state
	Due sim.Time // offset from the start of the measured phase
	Op  ycsb.Op  // read or update
	Key int      // key / document index
}

// streams generates n open-loop Poisson streams that together offer rate
// ops per virtual second, each carrying perStream ops drawn from mix over
// a scrambled zipfian keyspace of size keys. The same seed gives the same
// streams; distinct streams of one seed are independent.
//
// Each stream is a Poisson process conditioned on its count: perStream
// arrivals spread over exactly perStream/(rate/n) virtual seconds, with
// exponential gaps rescaled to that span. Arrivals stay Poisson locally,
// but a run's length, and so its offered rate, does not vary by seed.
func streams(seed int64, n, perStream int, rate float64, mix ycsb.Mix, keys int) [][]arrival {
	out := make([][]arrival, n)
	span := float64(perStream) * float64(n) * float64(sim.Second) / rate
	var id int64
	for s := range out {
		sub := seed*1_000_003 + int64(s)*7919
		rng := rand.New(rand.NewSource(sub))
		gen := ycsb.NewGenerator(mix, ycsb.NewZipfian(keys, sub+1, true), sub+2)
		gaps := make([]float64, perStream+1)
		total := 0.0
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()
			total += gaps[i]
		}
		at := 0.0
		out[s] = make([]arrival, perStream)
		for i := range out[s] {
			at += gaps[i] * span / total
			op, key := gen.Next()
			id++
			out[s][i] = arrival{ID: id, Due: sim.Time(at), Op: op, Key: key}
		}
	}
	return out
}

// lateness is how far behind its schedule a generator issued an op: zero
// when the op went out at its due time.
func lateness(due, issued sim.Time) sim.Time {
	if issued > due {
		return issued - due
	}
	return 0
}

// idleUntil moves a waiting client's clock to the op's due time, then
// yields until every task behind that time has caught up, so the op
// touches shared state in virtual-time order. Waiting for the next
// request occupies no core.
func idleUntil(t *sim.Task, due sim.Time) {
	if now := t.Now(); due > now {
		t.Advance(due - now)
	}
	t.Sync()
}

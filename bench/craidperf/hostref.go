package main

import "time"

// The host reference. On the shared two-vCPU hosts this benchmark runs
// on, a busy neighbour slows everything by 10-30% for minutes at a time
// and by 2-4x for tens of seconds now and then, which no amount of
// repetition inside one 20 s run averages away. So every run also times
// a fixed kernel of the benchmark's own — nothing under internal/ can
// change it — a few times before every round, and reports its timings on
// the scale of a host that runs that kernel in refNominal: wall time is
// divided by (fastest kernel time of the run / refNominal). On a quiet
// host of the baseline's speed the factor is 1 and the numbers are plain
// wall-clock numbers; the info line always carries the factor and the
// raw values.
//
// The kernel is shaped like the simulator's hot paths: an xorshift
// stream whose bits steer both a branch and a chain of dependent loads
// through a 256 KiB table (L2-resident pointer chasing), no allocation,
// no system call.

const (
	refSteps = 1_000_000
	// refSamples kernel runs precede every round; the first reloads the
	// table into the cache the round before it emptied. The run's
	// fastest sample is the one used, and it takes ~80 of them for that
	// minimum to repeat within a few percent on a busy host.
	refSamples = 5
	// refNominal is the fastest kernel time seen on the baseline host
	// (Intel Xeon @ 2.10GHz, 2 vCPU, go1.24.0) over ten quiet minutes.
	refNominal = 5400 * time.Microsecond
)

var refTable = func() []uint32 {
	// One cycle through all entries, laid out by a fixed LCG shuffle.
	const n = 1 << 16
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint32(2463534242)
	for i := n - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	tab := make([]uint32, n)
	for i, v := range order {
		tab[v] = order[(i+1)%n]
	}
	return tab
}()

var refSink uint32

// hostRef runs the reference kernel once and returns its wall time.
func hostRef() time.Duration {
	t0 := time.Now()
	x, i, acc := uint64(88172645463325252), uint32(0), uint32(0)
	for n := 0; n < refSteps; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&4 == 0 {
			i = refTable[(i+uint32(x))&0xffff]
		} else {
			i = refTable[i]
		}
		acc += i
	}
	refSink = acc
	return time.Since(t0)
}

package main

// The host-speed reference. calibrate runs a fixed, stdlib-only loop
// whose work never changes, so its wall time measures only how fast the
// host is running right now. Every host-time metric is rescaled by
// refNominalMS / (the reference measured next to it), which cancels
// drift from other tenants of the machine while keeping the unit a
// plain second.
//
// FROZEN: later changes must not edit calibrate, calibWork or
// refNominalMS. Editing any of them rescales every recorded number.

import (
	"sort"
	"time"
)

// refNominalMS is the reference loop's wall time in milliseconds on the
// 2-core x86-64 VM where the benchmark was defined. Corrected times are
// in "seconds on that host at its nominal speed".
const refNominalMS = 6.0

// calibReps is how many times one reference point runs the loop; the
// point is the median of the repetitions.
const calibReps = 3

// calibSink keeps the loop's checksum alive.
var calibSink uint64

// calibrate returns the median wall time in milliseconds of calibReps
// runs of calibWork.
func calibrate() float64 {
	var ms [calibReps]float64
	for i := range ms {
		t0 := time.Now()
		calibSink += calibWork()
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	s := ms[:]
	sort.Float64s(s)
	return s[calibReps/2]
}

// calibWork mixes the operations the simulator spends its time on: a
// 4-ary min-heap of (time, sequence) keys like the event queue, indirect
// loads over a table larger than L1, and map updates. It allocates
// nothing, so the program's garbage collector state does not leak into
// the reference.
func calibWork() uint64 {
	const steps = 60_000
	heap := calibHeap[:0]
	table := calibTable[:]
	m := calibMap
	clear(m)
	x := uint64(0x9e3779b97f4a7c15)
	var sum, seq uint64
	less := func(a, b calibEnt) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }
	push := func(e calibEnt) {
		heap = append(heap, e)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 4
			if less(heap[p], e) {
				break
			}
			heap[i] = heap[p]
			i = p
		}
		heap[i] = e
	}
	pop := func() calibEnt {
		top := heap[0]
		last := heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		n := len(heap)
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			for k := c + 1; k < c+4 && k < n; k++ {
				if less(heap[k], heap[best]) {
					best = k
				}
			}
			if less(last, heap[best]) {
				break
			}
			heap[i] = heap[best]
			i = best
		}
		if n > 0 {
			heap[i] = last
		}
		return top
	}
	now := uint64(0)
	for i := 0; i < calibDepth; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seq++
		push(calibEnt{now + x%10_000, seq})
	}
	idx := uint32(x % calibTableSize)
	for s := 0; s < steps; s++ {
		e := pop()
		now = e.at
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seq++
		push(calibEnt{now + 1 + x%10_000, seq})
		for k := 0; k < 4; k++ {
			idx = table[(idx+uint32(x>>uint(8*k)))%calibTableSize]
		}
		key := idx & 255
		m[key] += now
		sum += m[key] ^ uint64(idx)
	}
	return sum
}

const (
	calibDepth     = 128
	calibTableSize = 1 << 15
)

type calibEnt struct{ at, seq uint64 }

// The loop's working memory, allocated once so calibWork allocates
// nothing.
var (
	calibHeap  = make([]calibEnt, 0, calibDepth+1)
	calibTable = func() (t [calibTableSize]uint32) {
		for i := range t {
			t[i] = uint32(i*2654435761) % calibTableSize
		}
		return t
	}()
	calibMap = make(map[uint32]uint64, 256)
)

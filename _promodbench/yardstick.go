package main

import (
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// yardstickNominalMs is the yardstick's CPU time on the reference
// machine, a two-core virtual machine at a quiet time. A run whose
// yardstick takes longer ran on slower cores by that ratio.
const yardstickNominalMs = 18.0

// yardstick is a fixed piece of CPU work, a sort of 2¹⁷ random keys,
// that uses none of the repository's code, so no change to the program
// can move it. Its CPU time measures how fast the machine's cores run
// at the time of a run: on a shared virtual machine that drifts with
// the neighbours' load, without showing as steal.
type yardstick struct {
	keys, sorted []uint64
}

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(1)) // the same keys in every run
	y := &yardstick{keys: make([]uint64, 1<<17), sorted: make([]uint64, 1<<17)}
	for i := range y.keys {
		y.keys[i] = rng.Uint64()
	}
	return y
}

// measure sorts k times and appends each sort's CPU time in ms.
func (y *yardstick) measure(k int, into []float64) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < k; i++ {
		copy(y.sorted, y.keys)
		t0 := threadCPU()
		sort.Slice(y.sorted, func(i, j int) bool { return y.sorted[i] < y.sorted[j] })
		into = append(into, ms(threadCPU()-t0))
	}
	return into
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling thread's CPU time. Unlike getrusage,
// whose per-thread times advance in scheduler ticks, the thread CPU
// clock is exact to the nanosecond.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error()) // Linux has had this clock since 2.6.12
	}
	return time.Duration(ts.Nano())
}

package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux cpu_set_t for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs returns the calling thread's CPU affinity mask.
func allowedCPUs() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// count returns the number of CPUs in the mask.
func (m cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// pinToOneCPU restricts every thread of this process to the first CPU
// it may run on and sets GOMAXPROCS to 1; processes started afterwards
// inherit the restriction. It returns the CPU.
func pinToOneCPU() (int, error) {
	allowed, err := allowedCPUs()
	if err != nil {
		return 0, err
	}
	cpu := -1
	for i, w := range allowed {
		if w != 0 {
			cpu = i*64 + bits.TrailingZeros64(w)
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	runtime.GOMAXPROCS(1)
	// A thread the runtime starts while the loop runs inherits the mask
	// of the thread that started it, which may not be pinned yet, so
	// repeat until a pass finds every thread already pinned.
	for pinned := map[int]bool{}; ; {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		fresh := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
				unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity: %w", e)
			}
			pinned[tid] = true
			fresh++
		}
		if fresh == 0 {
			return cpu, nil
		}
	}
}

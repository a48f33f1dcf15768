package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// While a run measures, a child process spins on every CPU at SCHED_IDLE
// priority, so that no virtual CPU ever halts. The workloads are ping-pongs
// between two processes: between a call and its reply a CPU goes idle, and
// on a shared host an idle virtual CPU is descheduled, woken late, and not
// given a core of its own again until it has been busy for seconds. Measured
// on the reference box: a fixed arithmetic kernel run on two threads at once
// took 2.0x its one-thread time after an idle spell and 1.0-1.1x with the
// spinner running; over seven alternating pairs of hot-hit runs, pred_per_s
// was 5581-6158 with the spinner (range 10% of the median) against 4910-5729
// (16%), daemon CPU per prediction 108-127 us against 123-149 us, and every
// pair agreed on the sign. SCHED_IDLE tasks run only when nothing else wants
// the CPU and are preempted the moment something does, so the spinner takes
// nothing from the daemon or the generator. It is the in-guest stand-in for
// booting with idle=poll.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// startKeepAwake spawns the spinner: this binary again, as `bench keepawake`.
// It is stopped like a daemon and reaped by the same exit paths.
func startKeepAwake() (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "keepawake")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, spawn: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the keep-awake spinner: %w", err)
	}
	trackChild(d)
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// keepAwakeMain is the child: one thread per CPU, each demoted to SCHED_IDLE
// before it spins. A thread that cannot be demoted ends the process — a
// spinner at normal priority would take a CPU from what is being measured.
func keepAwakeMain() int {
	failed := make(chan error)
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				failed <- errno
				return
			}
			for {
			}
		}()
	}
	err := <-failed
	fmt.Fprintf(os.Stderr, "bench keepawake: sched_setscheduler(SCHED_IDLE): %v; CPUs are left to idle and timings will be noisier\n", err)
	return 1
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Limits that turn a hung daemon into a failed run instead of a hung one.
const (
	callTimeout  = 30 * time.Second // one HTTP call (a cold tenant's warmup rides on its first call)
	startTimeout = 20 * time.Second // spawn -> address logged
)

// buildDaemon compiles cmd/predictd from the tree at root into workDir. The
// Go build cache makes every build after the first a staleness check.
func buildDaemon(ctx context.Context, root, workDir string) (string, error) {
	bin := filepath.Join(workDir, "bin", "predictd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/predictd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/predictd in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// daemon is one running predictd child.
type daemon struct {
	cmd   *exec.Cmd
	tag   string // names its log file
	addr  string
	spawn time.Time
	// exited is closed once the child has been reaped; waitErr holds how.
	exited  chan struct{}
	waitErr error
	// killed is set before the harness kills the child, so that a child found
	// dead can be told apart: killed by the harness, killed from outside, or
	// gone on its own.
	killed atomic.Bool
}

// wrongAnswer marks a failure that is the daemon's doing: an answer that is
// wrong, or a daemon that gave up by itself. Every other failure of a run -
// no answer in time, a connection reset, a daemon killed from outside, a
// file that could not be written - is the machine's, and the piece of work it
// interrupted is set up and run again (runEnv.retrying).
type wrongAnswer struct{ error }

func (w wrongAnswer) Unwrap() error { return w.error }

// goneOnItsOwn reports whether the child has ended without anyone killing
// it - a panic, a log.Fatal - waiting up to a second for a child that is
// just going (the connection breaks before the exit status is in).
func (d *daemon) goneOnItsOwn() bool {
	select {
	case <-d.exited:
	case <-time.After(time.Second):
		return false
	}
	if d.killed.Load() {
		return false
	}
	var ee *exec.ExitError
	return !errors.As(d.waitErr, &ee) || ee.ExitCode() >= 0 // -1: ended by a signal
}

var addrPattern = regexp.MustCompile(` on (127\.0\.0\.1:\d+) \(`)

// startDaemon spawns predictd on an ephemeral loopback port with the manual
// clock (-tick 0) and returns once the startup log names the bound address,
// exactly as scripts/snapshot_smoke.sh reads it. args selects -specs FILE
// or -restore FILE.
func startDaemon(ctx context.Context, bin, dir, tag string, args ...string) (*daemon, error) {
	logFile, err := os.Create(filepath.Join(dir, tag+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-tick", "0"}, args...)...)
	cmd.Dir = dir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	// The child must not outlive the harness, even if the harness is
	// killed outright and none of its own cleanup runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, tag: tag, spawn: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	trackChild(d)
	addrCh := make(chan string, 1)
	var logMu sync.Mutex
	var logged bytes.Buffer
	go func() {
		// Copy the child's log to a file for post-mortems and watch it for
		// the address line; reading to EOF is what lets Wait return.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			logMu.Lock()
			if logged.Len() < 4<<10 {
				logged.WriteString(line + "\n")
			}
			logMu.Unlock()
			if m := addrPattern.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		logFile.Close()
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.exited:
		logMu.Lock()
		defer logMu.Unlock()
		err := fmt.Errorf("predictd exited before serving (%v):\n%s", d.waitErr, logged.String())
		if d.goneOnItsOwn() {
			return nil, wrongAnswer{err}
		}
		return nil, err
	case <-time.After(startTimeout):
		d.stop()
		return nil, fmt.Errorf("predictd logged no address within %v", startTimeout)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// stop kills the child and waits until it has been reaped.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.killed.Store(true)
	_ = d.cmd.Process.Kill() // already-exited is the only failure, and it is fine
	<-d.exited
	untrackChild(d)
}

func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// children is every live child, so a signal handler or a fatal path can
// reap them all before the process exits.
var (
	childMu  sync.Mutex
	children = map[*daemon]bool{}
)

func trackChild(d *daemon) {
	childMu.Lock()
	children[d] = true
	childMu.Unlock()
}

func untrackChild(d *daemon) {
	childMu.Lock()
	delete(children, d)
	childMu.Unlock()
}

func stopAllChildren() {
	childMu.Lock()
	live := make([]*daemon, 0, len(children))
	for d := range children {
		live = append(live, d)
	}
	childMu.Unlock()
	for _, d := range live {
		d.stop()
	}
}

// cpuSeconds is the child's user+system CPU so far, from /proc/<pid>/stat
// (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPUSeconds(d.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unreadable cpu fields in /proc/%d/stat", pid)
	}
	const clockTick = 100 // sysconf(_SC_CLK_TCK) on every Linux Go supports
	return (utime + stime) / clockTick, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// newConnClient returns a client that owns exactly one keep-alive TCP
// connection: the benchmark's "2 connections" are two of these.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: callTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     5 * time.Minute,
			DisableCompression:  true,
		},
	}
}

// loadAverage reads the 1-minute load average, for the shared-box warning.
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // unreadable reads as idle: the warning is advisory
	return v
}

// drain reads a response body to its end into buf so the connection is
// reused, and closes it.
func drain(buf *bytes.Buffer, body io.ReadCloser) error {
	buf.Reset()
	_, err := buf.ReadFrom(body)
	if cerr := body.Close(); err == nil {
		err = cerr
	}
	return err
}

// Command predictd serves stochastic execution-time predictions over
// HTTP/JSON — the predict.Service core exposed as a long-lived daemon
// against the paper's simulated production platforms. By default it hosts
// Platform 1 (center-mode load) and Platform 2 (bursty 4-modal load),
// predict.SimulatedSpec(1, 1) and (2, 1) with 600 virtual seconds of
// warm-up, behind one registry, and advances their shared virtual clocks
// from wall time.
//
// Endpoints:
//
//	POST /predict  {"platform":"platform2","n":800,"iterations":10,...}
//	POST /predict/batch  {"requests":[{...},{...}]} — up to 1024 predict
//	               bodies answered positionally in one tick-coherent call
//	POST /observe  {"platform":"platform2","id":7,"actual":41.3} — feed a
//	               measured runtime back to the online calibrator; answers
//	               the id consumed and whether it fired a regime reset
//	GET  /accuracy ?platform=platform2 — calibration state: capture rates,
//	               multipliers, drift events, outstanding ids (all platforms
//	               when omitted)
//	GET  /report   ?platform=platform2 — per-machine monitor reports, all
//	               at one virtual time
//	GET  /healthz  — status plus per-fault-class gap counters
//	POST /advance  {"platform":"platform2","seconds":60} — manual clock step
//	POST /snapshot — stream a binary image of the full fleet state,
//	               restorable with -restore
//	POST /schedule {"jobs":[{"n":800,"iterations":10,...}],"policy":"quantile"}
//	               — place SOR jobs across the fleet by predicted runtime
//	               distribution (policy defaults to quantile at 0.95)
//	GET  /schedule/status — fleet-scheduler state: per-tenant saturation,
//	               job lifecycle, makespan, deadline misses
//	GET  /metrics  — Prometheus text exposition (see OPERATIONS.md for the
//	               full metric catalog)
//
// With -specs fleet.json, the daemon serves the declarative fleet in the
// file instead of the built-in paper platforms; tenants instantiate lazily
// on their first request, and a spec's seed, warmup, fault_seed and faults
// keys are the way to serve other seeds, warm-ups or injected sensor
// faults. With -restore snap.bin, the daemon resumes a fleet captured by
// POST /snapshot, bit-identical to a run that never stopped.
// With -record-traces DIR, a clean shutdown records every instantiated
// platform's load processes to DIR as versioned trace files
// (<platform>-cpu<i>.trace, plus <platform>-net.trace when the network is
// contended) that a "trace" load replays bit-identically.
// With -pprof, net/http/pprof is mounted under /debug/pprof/;
// with -log-requests, one JSON access-log line per request goes to stderr.
// The operator runbook is OPERATIONS.md at the repo root.
//
// Usage:
//
//	predictd -addr :8080 -tick 5 -pprof
//	predictd -specs fleet.json
//	predictd -restore snap.bin
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"prodpred/internal/api"
	"prodpred/internal/load"
	"prodpred/internal/obs"
	"prodpred/internal/predict"
	"prodpred/internal/workload"
)

// options is predictd's command line. OPERATIONS.md's "Starting the
// daemon" table documents every flag; TestOperationsFlagTable holds the two
// to each other.
type options struct {
	addr, specs, restore, recordDir string
	tick                            float64
	pprof, logRequests              bool
}

// declareFlags defines predictd's flags on fs, bound to the returned
// options.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.Float64Var(&o.tick, "tick", 5, "virtual seconds advanced per wall-clock second (0 = manual /advance only)")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.BoolVar(&o.logRequests, "log-requests", false, "write one JSON access-log line per request to stderr")
	fs.StringVar(&o.specs, "specs", "", "serve the declarative fleet in this JSON file instead of the built-in platforms")
	fs.StringVar(&o.restore, "restore", "", "resume the fleet captured in this POST /snapshot image")
	fs.StringVar(&o.recordDir, "record-traces", "", "on shutdown, record every instantiated platform's load processes as replayable trace files in this directory")
	return o
}

func main() {
	o := declareFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "predictd:", err)
		os.Exit(1)
	}
}

// builtinRegistry hosts both paper platforms, SimulatedSpec(1, 1) and
// SimulatedSpec(2, 1) with 600 virtual seconds of warm-up, declared as
// specs so the fleet is snapshottable. They are instantiated eagerly: the
// daemon pays the warm-up at startup, not on the first request. A non-nil
// metrics registry instruments every service (per-stage timings,
// per-platform counters); nil disables telemetry.
func builtinRegistry(metrics *obs.Registry) (*predict.Registry, error) {
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for _, id := range []int{1, 2} {
		spec, err := predict.SimulatedSpec(id, 1)
		if err != nil {
			return nil, err
		}
		spec.Warmup = 600
		// No fault is injected, but snapshot images carry the spec: keep
		// the fault seed every built-in image has held.
		spec.FaultSeed = 1 + int64(id)
		if err := reg.RegisterSpec(spec); err != nil {
			return nil, err
		}
		if _, err := reg.Lookup(spec.Name); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// specRegistry serves the declarative fleet in path: every spec registers
// cold and instantiates lazily on its first request.
func specRegistry(path string, metrics *obs.Registry) (*predict.Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	specs, err := predict.ParseSpecs(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	reg := predict.NewRegistryWith(predict.RegistryOptions{Metrics: metrics})
	for _, spec := range specs {
		if err := reg.RegisterSpec(spec); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// restoreRegistry resumes the fleet captured in a POST /snapshot image.
func restoreRegistry(path string, metrics *obs.Registry) (*predict.Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reg, err := predict.ReadSnapshot(f, predict.RegistryOptions{Metrics: metrics})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reg, nil
}

func run(o *options) error {
	metrics := obs.NewRegistry()
	var reg *predict.Registry
	var err error
	switch {
	case o.restore != "" && o.specs != "":
		return errors.New("-specs and -restore are mutually exclusive")
	case o.restore != "":
		reg, err = restoreRegistry(o.restore, metrics)
	case o.specs != "":
		reg, err = specRegistry(o.specs, metrics)
	default:
		reg, err = builtinRegistry(metrics)
	}
	if err != nil {
		return err
	}
	opts := api.Options{Metrics: metrics, EnablePprof: o.pprof}
	if o.logRequests {
		opts.AccessLog = log.New(os.Stderr, "", 0)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	log.Printf("predictd: serving %v on %s (tick %gx, pprof %v)", reg.Names(), ln.Addr(), o.tick, o.pprof)
	if err := serve(ctx, reg, ln, o.tick, api.NewHandler(reg, opts)); err != nil {
		return err
	}
	if o.recordDir != "" {
		return recordFleet(reg, o.recordDir)
	}
	return nil
}

// recordFleet writes every instantiated platform's load processes to
// replayable trace files: <platform>-cpu<i>.trace per machine plus
// <platform>-net.trace when the network is contended. The traces cover
// virtual time [0, now], so a fleet spec pointing at them (LoadSpec kind
// "trace") replays the exact loads this daemon served against.
func recordFleet(reg *predict.Registry, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wrote := 0
	for _, svc := range reg.Services() {
		end := svc.Now()
		if end <= 0 {
			continue // never advanced: nothing to record
		}
		scenario, specHash, seed := provenance(svc.Spec())
		record := func(p load.Process, machine int, name string) error {
			h, vals, err := workload.CaptureTrace(p, scenario, specHash, seed, machine, 0, end)
			if err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			if err := workload.WriteTrace(f, h, vals); err != nil {
				f.Close()
				return err
			}
			wrote++
			return f.Close()
		}
		env := svc.Env()
		for i := range svc.Machines() {
			if err := record(env.CPULoad(i), i, fmt.Sprintf("%s-cpu%d.trace", svc.Name(), i)); err != nil {
				return err
			}
		}
		if _, constant := env.NetLoad().(load.Constant); !constant {
			if err := record(env.NetLoad(), -1, svc.Name()+"-net.trace"); err != nil {
				return err
			}
		}
	}
	log.Printf("predictd: recorded %d trace files to %s", wrote, dir)
	return nil
}

// provenance extracts trace-header provenance from a platform spec: the
// first scenario name its loads reference (if any), a hash of the spec
// JSON, and the platform seed.
func provenance(spec *predict.PlatformSpec) (scenario, specHash string, seed int64) {
	for _, ls := range spec.CPU {
		if ls.Kind == "scenario" {
			scenario = ls.Scenario
			break
		}
	}
	if b, err := json.Marshal(spec); err == nil {
		sum := sha256.Sum256(b)
		specHash = hex.EncodeToString(sum[:8])
	}
	return scenario, specHash, spec.Seed
}

// serve runs the daemon's HTTP server on ln until ctx is cancelled, then
// shuts it down gracefully, draining in-flight requests. Split from run so
// the tests can bind an ephemeral port, cancel the context, and assert a
// clean stop.
func serve(ctx context.Context, reg *predict.Registry, ln net.Listener, tick float64, handler http.Handler) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv := &http.Server{Handler: handler}
	if tick > 0 {
		// Map wall time onto the simulated clocks so monitors keep
		// measuring while the daemon idles between requests.
		go func() {
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if _, _, err := reg.AdvanceAll(tick); err != nil {
						log.Printf("predictd: clock advance: %v", err)
					}
				}
			}
		}()
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutdownCancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("predictd: shutdown: %v", err)
		}
	}()
	err := srv.Serve(ln)
	// Release the shutdown watcher (Serve may have failed on its own) and
	// wait for it so in-flight requests are drained before returning.
	cancel()
	<-shutdownDone
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Daemon mode: `tierscape -daemon` turns the CLI into a resident tiering
// controller. Instead of running one workload for -windows windows and
// exiting, it serves until shut down; workloads attach and detach at
// runtime through POST /command on the -metrics-addr listener (mounted
// next to /metrics, /debug/vars and /debug/pprof), and every attached
// workload advances one profile window per tick.
//
//	tierscape -daemon -tick 500ms -metrics-addr :9090
//	curl -X POST localhost:9090/command -d '{"op":"attach","name":"kv"}'
//	curl -X POST localhost:9090/command \
//	    -d '{"op":"attach","name":"replay","spec":{"replay":"run.trace"}}'
//	curl localhost:9090/status
//	curl -X POST localhost:9090/command -d '{"op":"set-alpha","name":"kv","alpha":0.7}'
//	curl -X POST localhost:9090/command -d '{"op":"detach","name":"kv"}'
//	curl -X POST localhost:9090/command -d '{"op":"shutdown"}'
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"tierscape"
	"tierscape/internal/daemon"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/trace"
)

// specBuilder lowers attach specs to sim configs and keeps the files
// opened for replay streams so shutdown can close them. A replay attach
// streams the trace file, consumed once: the workload stops ticking when
// it drains.
type specBuilder struct {
	defaults runSpec
	live     *tierscape.LiveMetrics

	mu      sync.Mutex
	closers []io.Closer
}

func (b *specBuilder) build(as daemon.AttachSpec) (sim.Config, error) {
	s := b.defaults
	if len(as.Spec) > 0 {
		dec := json.NewDecoder(bytes.NewReader(as.Spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return sim.Config{}, fmt.Errorf("attach spec: %w", err)
		}
	}
	if err := s.validate(); err != nil {
		return sim.Config{}, err
	}

	var wl tierscape.Workload
	if s.Replay != "" {
		f, err := os.Open(s.Replay)
		if err != nil {
			return sim.Config{}, err
		}
		st, err := trace.NewStream(f)
		if err != nil {
			f.Close()
			return sim.Config{}, err
		}
		b.mu.Lock()
		b.closers = append(b.closers, f)
		b.mu.Unlock()
		wl = st
	} else {
		var err error
		wl, err = buildWorkload(s.Workload, s.Pages, s.Seed)
		if err != nil {
			return sim.Config{}, err
		}
	}
	cfg, err := s.runConfig(wl)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Recorder = b.live
	return tierscape.SimConfig(cfg)
}

func (b *specBuilder) closeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.closers {
		c.Close()
	}
	b.closers = nil
}

// runDaemonMode is the -daemon entry point; its return value is the
// process exit code.
func runDaemonMode(o options) int {
	if o.metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "daemon mode needs -metrics-addr: runtime commands arrive over HTTP")
		return 2
	}
	dcfg := daemon.DefaultConfig()
	if o.daemonConfig != "" {
		var err error
		if dcfg, err = daemon.LoadConfig(o.daemonConfig); err != nil {
			fmt.Fprintf(os.Stderr, "daemon config: %v\n", err)
			return 2
		}
	}
	if o.tick > 0 {
		dcfg.TickEvery = o.tick
	}

	live := tierscape.NewLiveMetrics()
	d, err := daemon.New(dcfg, daemon.NewWallClock(dcfg.TickEvery), live)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	shutdown := make(chan struct{})
	var shutdownOnce sync.Once
	builder := &specBuilder{defaults: o.spec, live: live}
	hc := daemon.HandlerConfig{
		Build: builder.build,
		LoadConfig: func() (daemon.Config, error) {
			if o.daemonConfig == "" {
				return daemon.Config{}, fmt.Errorf("daemon: no -daemon-config file to reload")
			}
			return daemon.LoadConfig(o.daemonConfig)
		},
		Shutdown: func() { shutdownOnce.Do(func() { close(shutdown) }) },
	}

	// One listener serves both surfaces: the daemon's command interface
	// and the observability endpoints.
	mux := http.NewServeMux()
	dh := daemon.NewHandler(d, hc)
	mux.Handle("/command", dh)
	mux.Handle("/status", dh)
	mux.Handle("/", obs.Handler(live, o.health))
	addr, err := obs.Serve(o.metricsAddr, mux)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemon listener: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "daemon: tick %v, max %d workloads, commands at http://%s/command (also /status, /metrics, /healthz)\n",
		dcfg.TickEvery, dcfg.MaxWorkloads, addr)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "daemon: %v, shutting down\n", sig)
	case <-shutdown:
		fmt.Fprintln(os.Stderr, "daemon: shutdown command received")
	}

	// Clean shutdown: detach every workload, print its summary, stop.
	st, err := d.Status()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, w := range st.Workloads {
		res, derr := d.Detach(w.Name)
		if res == nil {
			fmt.Fprintf(os.Stderr, "detach %s: %v\n", w.Name, derr)
			code = 1
			continue
		}
		fmt.Printf("%s: %s/%s  windows %d  ops %d  TCO avg %.4f final %.4f  savings %.2f%%\n",
			w.Name, res.WorkloadName, res.ModelName, len(res.Windows), res.Ops,
			res.AvgTCO, res.FinalTCO, res.SavingsPct())
		if derr != nil {
			fmt.Fprintf(os.Stderr, "%s stopped early: %v\n", w.Name, derr)
			code = 1
		}
	}
	d.Stop()
	builder.closeAll()
	return code
}

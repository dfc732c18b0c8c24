// Command lubtd serves the lubt solver over HTTP/JSON: POST instances to
// /solve, targeted warm edits to /eco, scrape /metrics (JSON or
// ?format=prom Prometheus text), inspect the last completed requests at
// /debug/flight. Requests that share a topology (same sinks, source and
// resolved parent vector) but differ in delay windows or edge weights
// hit a cached warm LP session and re-solve in a handful of dual pivots
// instead of a cold solve.
//
// Usage:
//
//	lubtd                      # listen on :8080
//	lubtd -addr 127.0.0.1:9090
//	lubtd -workers 4 -cache 16 # 4 concurrent solves, 16 warm sessions
//	lubtd -pprof               # mount net/http/pprof under /debug/pprof/
//	lubtd -flight 256          # keep the last 256 request traces
//	lubtd -slow-solve 250ms    # log over-budget requests with their span tree
//	lubtd -log-level debug -log-format json
//
// Logs go to stderr through log/slog; every solver request gets an id
// (echoed as X-Request-Id) correlating its access-log line, flight
// entry and slow-solve report. On SIGQUIT the daemon dumps the flight
// ring to stderr and keeps running. On SIGINT/SIGTERM it stops
// accepting connections, drains in-flight solves (up to -drain), closes
// every warm session and exits. The wire contract is documented in
// docs/API.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"lubt/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", serve.DefaultCacheSize, "warm-basis session cache capacity (LRU entries)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight solves")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flightSize := flag.Int("flight", serve.DefaultFlightSize, "flight-recorder ring capacity (last N solver requests)")
	slowSolve := flag.Duration("slow-solve", 0, "log any solver request at least this slow with its full span tree (0 = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "lubtd takes no positional arguments")
		flag.Usage()
		os.Exit(2)
	}
	logger, err := newLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lubtd: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := serve.Config{
		Workers:     *workers,
		CacheSize:   *cacheSize,
		EnablePprof: *enablePprof,
		FlightSize:  *flightSize,
		SlowSolve:   *slowSolve,
		Logger:      logger,
	}
	if err := run(ctx, cfg, *addr, *drain, nil, nil); err != nil {
		logger.Error("lubtd exiting", slog.Any("err", err))
		os.Exit(1)
	}
}

// newLogger builds the daemon's slog.Logger from the -log-level and
// -log-format flags.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (text or json)", format)
}

// run brings the daemon up on addr and blocks until ctx is canceled,
// then drains and tears down. When ready is non-nil, the bound address
// is sent once the listener is accepting (the main_test hook — it also
// lets tests pass addr ":0"). SIGQUIT dumps the flight-recorder ring to
// flightDump (nil means stderr) without stopping the daemon.
func run(ctx context.Context, cfg serve.Config, addr string, drain time.Duration, ready chan<- string, flightDump io.Writer) error {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := serve.New(cfg)
	defer srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheCap := cfg.CacheSize
	if cacheCap <= 0 {
		cacheCap = serve.DefaultCacheSize
	}
	logger.Info("lubtd listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", workers),
		slog.Int("cache_capacity", cacheCap),
		slog.Bool("pprof", cfg.EnablePprof))

	// SIGQUIT: dump the flight ring and keep serving — the "what just
	// happened" lever for a live daemon.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	stopDump := make(chan struct{})
	var dumpWG sync.WaitGroup
	dumpWG.Add(1)
	go func() {
		defer dumpWG.Done()
		for {
			select {
			case <-quitc:
				w := flightDump
				if w == nil {
					w = os.Stderr
				}
				logger.Info("SIGQUIT: dumping flight recorder",
					slog.Int("entries", srv.Flight().Len()))
				_ = srv.Flight().WriteJSON(w)
			case <-stopDump:
				return
			}
		}
	}()
	defer func() {
		signal.Stop(quitc)
		close(stopDump)
		dumpWG.Wait()
	}()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("lubtd shutting down, draining in-flight solves",
		slog.Duration("drain", drain))
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

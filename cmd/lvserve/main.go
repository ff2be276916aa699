// Command lvserve builds a τ-LevelIndex over a dataset and serves
// preference queries over HTTP with JSON responses — build once, query
// cheaply from many clients.
//
// Usage:
//
//	lvserve -in hotels.txt -tau 10 -addr :8080
//	curl -X POST -d '{"family":"topk","w":[0.18,0.82],"k":2}' localhost:8080/v1/query
//	curl -X POST -d '{"family":"kspr","focal":0,"k":2}' localhost:8080/v1/query
//	curl localhost:8080/v1/stats
//
// Every query family goes through POST /v1/query (or /v1/query/batch); every
// endpoint lives under /v1/ only.
// Top-k queries are answered by one walk down the index; the other families
// go through an LSN-stamped answer cache (size it with -cache-entries,
// disable with a negative value).
//
// With -data-dir the index is durable: accepted inserts are written to a
// CRC-checked write-ahead log and fsync'd before the HTTP 200, snapshots
// are taken automatically (and on demand via POST /v1/admin/snapshot), and
// a restart recovers the index from disk — -in is then only needed for the
// very first start, to seed the directory:
//
//	lvserve -in hotels.txt -tau 10 -data-dir /var/lib/lvserve
//	curl -X POST -d '{"option":[0.95,0.95]}' localhost:8080/v1/insert
//	curl localhost:8080/v1/admin/status
//
// Snapshots can additionally be triggered on a timer (-snapshot-interval).
// The primary recovers its snapshot onto the heap.
//
// With -follow the process is a replica instead of a primary: it never
// builds or owns an index, but installs the primary's serialized index
// from its snapshot-shipping stream and keeps it fresh by polling for a
// newer one, which it opens zero-copy through a read-only memory mapping.
// A follower serves the full read API and rejects inserts with 403,
// pointing clients at the primary:
//
//	lvserve -follow http://primary:8080 -data-dir /var/lib/lvserve-replica
//	curl localhost:8080/v1/admin/status
//
// Observability: every request is access-logged through log/slog
// (-log-level, -log-format) and counted into the Prometheus metrics served
// at GET /v1/metrics; -pprof additionally mounts net/http/pprof under
// /debug/pprof/ for live profiling:
//
//	lvserve -in hotels.txt -log-format json -pprof
//	curl localhost:8080/v1/metrics
//	go tool pprof localhost:8080/debug/pprof/profile?seconds=10
//
// Requests additionally run under W3C traces recorded into an in-memory
// flight recorder with a separate slow-query tier: incoming traceparent
// headers are always honored, and 1 in -trace-sample other requests starts
// a fresh trace (set 1 to trace everything). Recent traces are served at
// GET /v1/admin/trace (-trace-buffer sizes it, negative disables;
// -slow-query-ms tunes the slow threshold) and sampled top-k traffic per
// cell chain at GET /v1/admin/hotcells:
//
//	curl 'localhost:8080/v1/admin/trace?min_ms=100&n=10'
//	curl 'localhost:8080/v1/admin/hotcells?n=20'
//
// SIGINT/SIGTERM trigger a graceful stop: in-flight requests drain (bounded
// by -drain) and, in durable mode, a final snapshot is written so the next
// start replays nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/dataio"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/replicate"
	"tlevelindex/internal/serve"
	"tlevelindex/internal/store"
)

func main() {
	in := flag.String("in", "", "input dataset path (required unless -data-dir already holds an index)")
	tau := flag.Int("tau", 10, "index levels")
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durable store directory (empty: memory-only, inserts lost on exit)")
	snapBytes := flag.Int64("snapshot-bytes", 4<<20, "auto-snapshot after this many WAL bytes (durable mode; <=0 disables)")
	snapRecords := flag.Int("snapshot-records", 1024, "auto-snapshot after this many WAL records (durable mode; <=0 disables)")
	snapInterval := flag.Duration("snapshot-interval", 0, "auto-snapshot on this wall-clock period (durable mode; <=0 disables)")
	follow := flag.String("follow", "", "primary base URL to follow as a read-only replica (e.g. http://host:8080)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	progress := flag.Bool("progress", false, "log per-level build progress (cells/sec)")
	cacheEntries := flag.Int("cache-entries", 0, "answer-cache capacity (0: default size, negative: cache off)")
	traceBuffer := flag.Int("trace-buffer", 0, "flight-recorder trace capacity (0: default size, negative: recorder off)")
	slowQueryMs := flag.Float64("slow-query-ms", 0, "slow-query threshold in ms (0: default 100ms, negative: slow tier off)")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N requests without a caller traceparent (0: default 64, 1: every request, negative: propagated only)")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The builder is only invoked when the data directory is empty (or in
	// memory-only mode); a recovered start never re-reads the dataset.
	build := func() (*tlx.Index, error) {
		if *in == "" {
			return nil, fmt.Errorf("-in is required to seed an empty index")
		}
		data, err := dataio.ReadFile(*in)
		if err != nil {
			return nil, err
		}
		var buildOpts []tlx.Option
		if *progress {
			buildOpts = append(buildOpts, tlx.WithProgress(func(p tlx.BuildProgress) {
				log.Info("build progress", "algorithm", p.Algorithm,
					"level", p.Level, "maxLevel", p.MaxLevel,
					"levelCells", p.LevelCells, "cellsPerSec", p.CellsPerSec,
					"elapsed", p.Elapsed.String())
			}))
		}
		start := time.Now()
		ix, err := tlx.Build(data, *tau, buildOpts...)
		if err != nil {
			return nil, err
		}
		log.Info("index built", "options", len(data), "tau", ix.Tau(),
			"cells", ix.NumCells(), "took", time.Since(start).String())
		return ix, nil
	}

	cfg := serve.Config{
		Logger:       log,
		Pprof:        *pprofOn,
		CacheEntries: *cacheEntries,
		TraceBuffer:  *traceBuffer,
		SlowQuery:    time.Duration(*slowQueryMs * float64(time.Millisecond)),
		TraceSample:  *traceSample,
	}
	var handler *serve.Handler
	var st *store.Store
	var fol *replicate.Follower
	if *follow != "" {
		if *dataDir == "" {
			fatal(fmt.Errorf("-follow requires -data-dir for the downloaded snapshot"))
		}
		// The follower and its serve handler share one flight recorder, so
		// GET /v1/admin/trace on the replica shows bootstrap traces next to
		// request traces. A negative -trace-buffer disables both.
		if *traceBuffer >= 0 {
			cfg.Recorder = obs.NewRecorder(*traceBuffer, cfg.SlowQuery, log)
		}
		fol, err = replicate.Start(replicate.Options{
			PrimaryURL: *follow,
			Dir:        *dataDir,
			Logger:     log,
			Recorder:   cfg.Recorder,
		})
		if err != nil {
			fatal(err)
		}
		log.Info("follower ready", "primary", fol.PrimaryURL(),
			"appliedLsn", fol.AppliedLSN(), "state", fol.StateName())
		handler = serve.NewFollowerHandler(fol, cfg)
	} else if *dataDir != "" {
		st, err = store.Open(store.Options{
			Dir:              *dataDir,
			SnapshotBytes:    *snapBytes,
			SnapshotRecords:  *snapRecords,
			SnapshotInterval: *snapInterval,
			Logger:           log,
		}, build)
		if err != nil {
			fatal(err)
		}
		status := st.Status()
		log.Info("store ready", "recoveredFrom", status.RecoveredFrom,
			"appliedLsn", status.AppliedLSN, "replayed", status.RecordsReplayed)
		handler = serve.NewStoreHandler(st, cfg)
	} else {
		ix, err := build()
		if err != nil {
			fatal(err)
		}
		handler = serve.NewHandler(ix, cfg)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "pprof", *pprofOn)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills us
		log.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(shutCtx)
		cancel()
		if err != nil {
			log.Error("drain failed", "err", err)
		}
		if st != nil {
			// Close takes a final snapshot, so a clean stop replays nothing
			// on the next start.
			if err := st.Close(); err != nil {
				fatal(err)
			}
		}
		if fol != nil {
			// Close stops the follow loop and releases the snapshot mapping;
			// the local snapshot stays for the next start to resume from.
			if err := fol.Close(); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvserve:", err)
	os.Exit(1)
}

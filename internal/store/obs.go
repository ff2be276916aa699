package store

import "tlevelindex/internal/obs"

// WAL and snapshot instruments, registered once against the process-wide
// registry. The append path splits its latency three ways — the write
// syscall, the fsync, and the whole Insert ack (lock + index insert + WAL
// append + fsync) — because fsync dominates on real disks and the split is
// what tells an operator whether a latency regression is the device or the
// index.
var (
	walAppendSeconds = obs.Default().Histogram("tlx_wal_append_seconds",
		"WAL record write syscall latency in seconds.", obs.LatencyBuckets())
	walFsyncSeconds = obs.Default().Histogram("tlx_wal_fsync_seconds",
		"WAL fsync latency in seconds.", obs.LatencyBuckets())
	walAckSeconds = obs.Default().Histogram("tlx_wal_ack_seconds",
		"Full insert acknowledgement latency in seconds (index insert + WAL append + fsync).",
		obs.LatencyBuckets())
	walAppendsTotal = obs.Default().Counter("tlx_wal_appends_total",
		"WAL records appended and fsync'd.")
	walFsyncsTotal = obs.Default().Counter("tlx_wal_fsyncs_total",
		"WAL fsync calls. Under group commit this grows slower than tlx_wal_appends_total; the ratio is fsyncs per record.")
	walGroupSize = obs.Default().Histogram("tlx_wal_group_size",
		"Records committed per WAL fsync group.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	walAppendBytesTotal = obs.Default().Counter("tlx_wal_append_bytes_total",
		"Bytes appended to the WAL.")
	snapshotsTotal = obs.Default().Counter("tlx_snapshots_total",
		"Snapshots captured successfully.")
	snapshotFailuresTotal = obs.Default().Counter("tlx_snapshot_failures_total",
		"Snapshot attempts that failed (refused or errored).")
	snapshotSeconds = obs.Default().Histogram("tlx_snapshot_seconds",
		"Snapshot capture latency in seconds.", obs.LatencyBuckets())
	snapshotBytes = obs.Default().Gauge("tlx_snapshot_bytes",
		"Size of the most recent snapshot in bytes.")
)

// registerStoreGauges exposes the store's durability state as gauges. The
// registry replaces the reader on re-registration, so the newest opened
// store wins — matching the one-store-per-process deployment shape.
func registerStoreGauges(s *Store) {
	obs.Default().GaugeFunc("tlx_store_applied_lsn",
		"LSN of the last record applied to the index.", func() float64 {
			return float64(s.AppliedLSN())
		})
	obs.Default().GaugeFunc("tlx_store_snapshot_lsn",
		"LSN covered by the newest durable snapshot.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.snapLSN)
		})
	obs.Default().GaugeFunc("tlx_store_wal_bytes",
		"WAL record bytes accumulated since the last snapshot.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.bytesSinceSnap)
		})
	obs.Default().GaugeFunc("tlx_store_read_only",
		"1 when the store refuses writes after a WAL failure, else 0.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if s.failed != nil {
				return 1
			}
			return 0
		})
}

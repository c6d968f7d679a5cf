package fm

import "sync/atomic"

// KernelStats counts the work the net-state-aware kernel avoided relative to
// the straightforward incremental scheme (the frozen reference kernel in
// reference_test.go). All fields are cumulative across runs and updated
// atomically, so one KernelStats may be shared by concurrent workers (each
// kernel accumulates locally and publishes once per run).
type KernelStats struct {
	// NetsSkipped counts nets bypassed by locked-net short-circuiting: their
	// locked pins covered every part, so no gain could change.
	NetsSkipped int64 `json:"nets_skipped"`
	// PinScansAvoided counts the gain-update pin traversals the reference
	// kernel would have executed on the skipped nets but this kernel did not:
	// one full pin-list scan per critical Φ case (Φ(t) <= 1 before the move,
	// Φ(from) <= 1 after). Non-critical (net, move) pairs charge nothing —
	// the reference does not scan those either.
	PinScansAvoided int64 `json:"pin_scans_avoided"`
	// PinsScanned counts the same traversals on the nets the kernel did
	// process, under identical accounting (the 2-/3-pin fast paths are
	// charged as if they scanned), so the kernel executes a fraction
	// PinsScanned / (PinsScanned + PinScansAvoided) of the reference's
	// gain-update pin traversals.
	PinsScanned int64 `json:"pins_scanned"`
	// BucketUpdatesSaved counts gain deltas that were folded into an earlier
	// repositioning of the same move id by batched bucket updates (the
	// reference repositions once per delta).
	BucketUpdatesSaved int64 `json:"bucket_updates_saved"`
}

func (s *KernelStats) add(nets, avoided, scanned, updates int64) {
	atomic.AddInt64(&s.NetsSkipped, nets)
	atomic.AddInt64(&s.PinScansAvoided, avoided)
	atomic.AddInt64(&s.PinsScanned, scanned)
	atomic.AddInt64(&s.BucketUpdatesSaved, updates)
}

// Snapshot returns an atomically read copy of the counters.
func (s *KernelStats) Snapshot() KernelStats {
	return KernelStats{
		NetsSkipped:        atomic.LoadInt64(&s.NetsSkipped),
		PinScansAvoided:    atomic.LoadInt64(&s.PinScansAvoided),
		PinsScanned:        atomic.LoadInt64(&s.PinsScanned),
		BucketUpdatesSaved: atomic.LoadInt64(&s.BucketUpdatesSaved),
	}
}

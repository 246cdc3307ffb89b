package baseline

import (
	"repro/internal/obs"
)

// ScopeName is the obs scope the baseline layer records into; see
// OBSERVABILITY.md for the metric catalogue.
const ScopeName = "baseline"

// Baseline metric names (scope "baseline"). Counters accumulate across
// constructions sharing a scope.
const (
	// CtrBPRIMRelaxScans counts candidate edges examined by BPRIM's
	// relaxation loop (the O(n^2) inner work of the construction).
	CtrBPRIMRelaxScans = "bprim_relax_scans"
	// CtrBPRIMBoundRejections counts candidate edges discarded because
	// the extended source path would exceed (1+eps)·R.
	CtrBPRIMBoundRejections = "bprim_bound_rejections"
	// CtrBPRIMAttachments counts nodes attached to the growing tree.
	CtrBPRIMAttachments = "bprim_attachments"
	// CtrBRBCShortcuts counts direct source shortcuts inserted by the
	// BRBC tour walk (0 means the MST already met the bound).
	CtrBRBCShortcuts = "brbc_shortcuts"
	// CtrBRBCMSTReturns counts BRBC calls that returned the plain MST
	// untouched (eps = +Inf or trivially small instances).
	CtrBRBCMSTReturns = "brbc_mst_returns"
)

// Counters is the baseline layer's obs-backed instrument set.
type Counters struct {
	BPRIMRelaxScans      *obs.Counter
	BPRIMBoundRejections *obs.Counter
	BPRIMAttachments     *obs.Counter
	BRBCShortcuts        *obs.Counter
	BRBCMSTReturns       *obs.Counter
}

// NewCounters resolves the baseline instrument set inside sc (nil sc
// yields a standalone set not attached to any registry).
func NewCounters(sc *obs.Scope) *Counters {
	return &Counters{
		BPRIMRelaxScans:      sc.Counter(CtrBPRIMRelaxScans),
		BPRIMBoundRejections: sc.Counter(CtrBPRIMBoundRejections),
		BPRIMAttachments:     sc.Counter(CtrBPRIMAttachments),
		BRBCShortcuts:        sc.Counter(CtrBRBCShortcuts),
		BRBCMSTReturns:       sc.Counter(CtrBRBCMSTReturns),
	}
}

package policy

import (
	"repro/internal/core"
)

// Urgent-extract piggybacking: the policy half. The node's transport
// plumbing (core.UrgentProvider / core.UrgentMerger) gives every
// mechanism-namespace reply an optional baggage slot; this file decides
// what rides in it — signed ledger extracts at or above the quarantine
// threshold — and how arriving baggage is ingested: through the very
// same verify-then-Merge as baggage gossip and exchange deltas, so the
// one-RPC fast path gets no new trust surface. Damping, the merge cap,
// and decayed-max idempotence all apply unchanged; replaying an urgent
// reply is as harmless as replaying gossip.

const (
	// maxUrgentEntries bounds the extracts one reply may carry: urgent
	// baggage is a fast path for the worst offenders, not a second
	// exchange channel — the anti-entropy loop moves the long tail.
	maxUrgentEntries = 8
)

var (
	_ core.UrgentProvider = (*Gossip)(nil)
	_ core.UrgentMerger   = (*Gossip)(nil)
)

// SetUrgentThreshold enables urgent piggybacking for ledger entries at
// or above threshold — deployments wire the quarantine threshold here
// (protection.Assemble does). Call before the node starts, like
// SetClock; non-positive leaves it disabled.
func (m *Gossip) SetUrgentThreshold(threshold float64) {
	if threshold > 0 {
		m.urgentAt = threshold
	}
}

// UrgentReplyBaggage implements core.UrgentProvider: the encoded,
// signed extracts currently at or above the urgent threshold, capped
// at maxUrgentEntries, or nil when nothing qualifies. Called on every
// served mechanism call, so the encoded form is cached per ledger
// version: the common nothing-changed case is one atomic load and one
// mutex hop, not a snapshot.
func (m *Gossip) UrgentReplyBaggage(hc *core.HostContext) []byte {
	if m.urgentAt <= 0 || hc == nil || hc.Host == nil {
		return nil
	}
	ver := m.ledger.Version()
	m.urgMu.Lock()
	if m.urgCacheSet && m.urgCacheVer == ver {
		b := m.urgCache
		m.urgMu.Unlock()
		m.noteUrgentSent(b)
		return b
	}
	m.urgMu.Unlock()

	// Rebuild outside the lock: Snapshot sorts most-suspect-first, so
	// the threshold filter plus the entry cap selects the head. Decay
	// can only lower entries out of a cached set between versions —
	// over-sending a decayed entry is harmless (merge is a damped,
	// decayed max), under-sending never happens because raising updates
	// bump the version.
	self := hc.Host.Name()
	entries := m.extracts(m.ledger.rows(), self, hc.Host.Keys(), maxUrgentEntries,
		func(rep core.HostReputation) bool { return rep.Suspicion < m.urgentAt })
	var enc []byte
	if len(entries) > 0 {
		if b, err := encodeEntries(entries); err == nil {
			enc = b
		}
	}
	m.urgMu.Lock()
	m.urgCacheVer = ver
	m.urgCacheSet = true
	m.urgCache = enc
	m.urgMu.Unlock()
	m.noteUrgentSent(enc)
	return enc
}

// noteUrgentSent counts one wrapped reply (nil baggage is not sent).
func (m *Gossip) noteUrgentSent(b []byte) {
	if len(b) == 0 {
		return
	}
	m.exMu.Lock()
	m.urgentSent++
	m.exMu.Unlock()
}

// MergeUrgentBaggage implements core.UrgentMerger: decode under the
// gossip bounds, then the shared verify-then-Merge. It returns, and
// counts in UrgentMerged, the entries adopted — those that would raise
// a record here and verified; the rest are not checked. Malformed
// baggage merges nothing — it is advisory second-hand evidence and
// never fails the carrying call.
func (m *Gossip) MergeUrgentBaggage(hc *core.HostContext, baggage []byte) int {
	if hc == nil || hc.Host == nil {
		return 0
	}
	entries, err := decodeEntriesBounded(baggage, maxGossipEntries)
	if err != nil {
		return 0
	}
	keep := m.mergeVerified(hc.Host.Registry(), hc.Host.Name(), entries)
	if len(keep) > 0 {
		m.exMu.Lock()
		m.urgentMerged += int64(len(keep))
		m.exMu.Unlock()
	}
	return len(keep)
}

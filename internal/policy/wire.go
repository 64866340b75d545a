package policy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/canon"
)

// The gossip wire codec: GossipEntry lists move between hosts in agent
// baggage and in the anti-entropy exchange protocol, always over
// attacker-controllable transports. The encoding is the repo's bounded
// canon.Tuple format (PR 1's wire policy) instead of gob: every length
// is framed, the total byte size and the entry count are checked
// *before* anything is allocated proportionally to the declared
// content, and a malformed or oversized message is rejected with a
// typed error instead of a large speculative allocation.
//
// Layout (all framing canon.Tuple):
//
//	entries := Tuple(entriesWireLabel, entry, entry, ...)
//	entry   := Tuple(observer, host, suspicionBits8, atUnixNano8,
//	                 sigSigner, sigBytes)
const (
	// entriesWireLabel versions the entry-list framing.
	entriesWireLabel = "policy-gossip-entries"
	// entryFieldCount is the per-entry tuple arity.
	entryFieldCount = 6

	// MaxGossipWireBytes bounds any encoded entry list accepted off the
	// wire (baggage or exchange); a message beyond it is rejected
	// before parsing. Senders never construct an over-bound list:
	// extract selection stops at the byte budget (entryWireSize), so a
	// large fleet with long principal names trades fewer entries per
	// round rather than failing the round.
	MaxGossipWireBytes = 64 * 1024
	// maxPrincipalLen bounds each principal name carried in an entry;
	// real host names are tens of bytes.
	maxPrincipalLen = 256
	// maxSigLen bounds the signature field (Ed25519 signatures are 64
	// bytes; the slack tolerates future schemes without unbounding).
	maxSigLen = 128
)

// ErrGossipWire is wrapped by every rejection of the gossip wire codec
// (oversized input, too many entries, malformed framing).
var ErrGossipWire = errors.New("policy: malformed gossip wire data")

// tupleWireSize returns the encoded size of a canon.Tuple whose fields
// have the given lengths: the version byte, tuple tag, and 4-byte
// count, then a 4-byte length prefix per field. This is the single
// place the framing arithmetic lives — every sender-side size estimate
// below derives from it, so it must stay in lockstep with
// canon.AppendTuple (pinned by the codec round-trip tests).
func tupleWireSize(fieldLens ...int) int {
	n := 1 + 1 + 4
	for _, l := range fieldLens {
		n += 4 + l
	}
	return n
}

// entriesWireHeader is the fixed overhead of an encoded entry list
// (outer tuple framing plus the label field).
var entriesWireHeader = tupleWireSize(len(entriesWireLabel))

// entryWireSize is the exact encoded size one entry contributes to an
// entry-list message: its own tuple framing plus the outer list's
// length prefix for it. Senders use it to stop adding entries before a
// list would exceed MaxGossipWireBytes.
func entryWireSize(e *GossipEntry) int {
	return 4 + tupleWireSize(len(e.Observer), len(e.Host), 8, 8, len(e.Sig.Signer), len(e.Sig.Sig))
}

// summaryItemWireSize is the encoded size one (host, suspicion) pair
// contributes to an offer's ledger summary.
func summaryItemWireSize(host string) int {
	return 4 + tupleWireSize(len(host), 8)
}

// encodeEntries renders entries in the bounded tuple format. The
// encoder enforces the same per-field bounds as the decoder so a host
// can never emit a message its peers are required to reject.
func encodeEntries(entries []GossipEntry) ([]byte, error) {
	fields := make([][]byte, 0, 1+len(entries))
	fields = append(fields, []byte(entriesWireLabel))
	for i := range entries {
		e := &entries[i]
		if len(e.Observer) > maxPrincipalLen || len(e.Host) > maxPrincipalLen ||
			len(e.Sig.Signer) > maxPrincipalLen || len(e.Sig.Sig) > maxSigLen {
			return nil, fmt.Errorf("%w: entry %d field over bound", ErrGossipWire, i)
		}
		fields = append(fields, canon.Tuple(
			[]byte(e.Observer),
			[]byte(e.Host),
			canon.Uint64Field(math.Float64bits(e.Suspicion)),
			canon.Uint64Field(uint64(e.AtUnixNano)),
			[]byte(e.Sig.Signer),
			e.Sig.Sig,
		))
	}
	out := canon.Tuple(fields...)
	if len(out) > MaxGossipWireBytes {
		return nil, fmt.Errorf("%w: %d encoded bytes over %d", ErrGossipWire, len(out), MaxGossipWireBytes)
	}
	return out, nil
}

// decodeEntriesBounded parses a bounded entry list. maxEntries caps the
// accepted count; the byte bound is checked before any parsing, so a
// hostile message cannot force allocation beyond its own (bounded)
// length. Semantic filtering (signature verification, self-reports,
// non-finite suspicion) is the caller's job — this is framing only.
func decodeEntriesBounded(data []byte, maxEntries int) ([]GossipEntry, error) {
	s, err := canon.ScanList(data, entriesWireLabel, MaxGossipWireBytes, maxEntries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrGossipWire, err)
	}
	entries := make([]GossipEntry, 0, s.Len())
	for s.Len() > 0 {
		f := s.Field(maxEntryWireBytes)
		if f == nil {
			break // s.End reports why
		}
		e, err := decodeEntry(f)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if err := s.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrGossipWire, err)
	}
	return entries, nil
}

// maxEntryWireBytes is the largest entry tuple decodeEntry can accept.
var maxEntryWireBytes = tupleWireSize(maxPrincipalLen, maxPrincipalLen, 8, 8, maxPrincipalLen, maxSigLen)

// decodeEntry parses one entry tuple in place, enforcing per-field
// bounds; only the names and the signature are copied out.
func decodeEntry(b []byte) (GossipEntry, error) {
	s, err := canon.ScanTuple(b)
	if err != nil {
		return GossipEntry{}, fmt.Errorf("%w: entry: %v", ErrGossipWire, err)
	}
	if s.Len() != entryFieldCount {
		return GossipEntry{}, fmt.Errorf("%w: entry has %d fields, want %d", ErrGossipWire, s.Len(), entryFieldCount)
	}
	observer, host := s.Field(maxPrincipalLen), s.Field(maxPrincipalLen)
	suspicion, at := s.Uint64(), s.Uint64()
	signer, sig := s.Field(maxPrincipalLen), s.Field(maxSigLen)
	if err := s.End(); err != nil {
		return GossipEntry{}, fmt.Errorf("%w: entry: %v", ErrGossipWire, err)
	}
	e := GossipEntry{
		Observer:   string(observer),
		Host:       string(host),
		Suspicion:  math.Float64frombits(suspicion),
		AtUnixNano: int64(at),
	}
	// The signer of every honest entry is its observer: share the string.
	e.Sig.Signer = e.Observer
	if string(signer) != e.Observer {
		e.Sig.Signer = string(signer)
	}
	e.Sig.Sig = append([]byte(nil), sig...)
	return e, nil
}

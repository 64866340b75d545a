package core

import (
	"context"
	"fmt"
	"time"
)

// The anti-entropy exchange contract. Gossip in agent baggage (the
// reputation mechanism's default transport) spreads suspicion only
// along an agent's route; hosts with disjoint traffic never hear about
// each other's detections. A mechanism implementing Exchanger closes
// that gap: the node starts a background loop that periodically trades
// ledger extracts with configured fleet peers over the ordinary call
// path, so the fleet converges on a shared picture even with zero
// shared agent traffic. The interfaces live here so the node can own
// the loop's lifecycle without core depending on the policy package.

// Defaults for the exchange loop.
const (
	// DefaultExchangeInterval paces exchange rounds when
	// ExchangeConfig.Interval is zero.
	DefaultExchangeInterval = 30 * time.Second
	// DefaultExchangeBudget bounds the entries either side contributes
	// per round when ExchangeConfig.Budget is zero.
	DefaultExchangeBudget = 32
	// MaxExchangeBudget caps the per-round entry budget a peer can
	// request, so a hostile initiator cannot turn one offer into an
	// arbitrarily large reply.
	MaxExchangeBudget = 256
	// DefaultAggregatorBudgetFactor scales an aggregator's per-round
	// budget over the member budget when ExchangeConfig.AggregatorBudget
	// is zero: aggregator↔aggregator rounds carry a whole sub-fleet's
	// worth of extracts, so they get more room (clamped to the max).
	DefaultAggregatorBudgetFactor = 4
)

// ExchangeRole selects a node's tier in the exchange federation.
type ExchangeRole string

// Federation tiers. Flat is the original topology: every node draws
// partners from the whole peer list. In hierarchical mode, members
// exchange only with the designated aggregators (failing over among
// them by score), and aggregators exchange with the other aggregators
// using the larger budget — per-round fleet message count drops from
// O(N²) toward O(N + A²).
const (
	ExchangeRoleFlat       ExchangeRole = "flat"
	ExchangeRoleMember     ExchangeRole = "member"
	ExchangeRoleAggregator ExchangeRole = "aggregator"
)

// ParseExchangeRole maps an operator-supplied string ("" means flat)
// to a role, rejecting unknown values.
func ParseExchangeRole(s string) (ExchangeRole, error) {
	switch ExchangeRole(s) {
	case "", ExchangeRoleFlat:
		return ExchangeRoleFlat, nil
	case ExchangeRoleMember:
		return ExchangeRoleMember, nil
	case ExchangeRoleAggregator:
		return ExchangeRoleAggregator, nil
	}
	return "", fmt.Errorf("core: unknown exchange role %q (want flat, member, or aggregator)", s)
}

// ExchangeConfig configures a node's anti-entropy reputation exchange.
// The zero value disables it.
type ExchangeConfig struct {
	// Peers is the fleet address list the loop draws partners from (the
	// node's own name is skipped). Empty disables the exchange unless
	// Aggregators is set.
	Peers []string
	// Interval paces the rounds; one scheduler-picked peer is visited
	// per round. 0 means DefaultExchangeInterval.
	Interval time.Duration
	// Budget bounds the ledger extracts each side contributes per
	// round. 0 means DefaultExchangeBudget; values above
	// MaxExchangeBudget are clamped.
	Budget int

	// Role selects the federation tier; empty means flat. Member and
	// aggregator roles require Aggregators.
	Role ExchangeRole
	// Aggregators names the designated aggregator nodes. A member draws
	// partners only from this list; an aggregator from this list minus
	// itself (a sole aggregator initiates no rounds but still serves
	// its members' offers).
	Aggregators []string
	// AggregatorBudget is the per-round budget aggregator↔aggregator
	// rounds use; 0 means DefaultAggregatorBudgetFactor × Budget,
	// clamped to MaxExchangeBudget.
	AggregatorBudget int

	// StatePath, when set, persists the partner scheduler's per-peer
	// state (staleness anchors, failure penalties, distance estimates)
	// across restarts — without it a restart forgets which peers were
	// dead and lets them burn rounds again. Nodes with a data directory
	// set it automatically.
	StatePath string
}

// Enabled reports whether the configuration asks for an exchange loop.
func (c ExchangeConfig) Enabled() bool { return len(c.Peers) > 0 || len(c.Aggregators) > 0 }

// Exchanger is the optional Mechanism extension the node looks for when
// NodeConfig.Exchange is set: the mechanism owns the protocol (it also
// serves the peer-facing offer call), the node owns the lifecycle.
type Exchanger interface {
	// StartExchange launches the background loop. ctx is the node's
	// root context (cancelled at Close); the returned stop function
	// halts the loop and blocks until it has exited, and must be safe
	// to call after ctx is cancelled.
	StartExchange(ctx context.Context, hc *HostContext, cfg ExchangeConfig) (stop func(), err error)
}

// ExchangeStats is a snapshot of a node's exchange activity, served
// through the node/reputation built-in call.
type ExchangeStats struct {
	// Rounds counts initiated exchange rounds; Failures the rounds that
	// errored (peer unreachable, malformed reply).
	Rounds   int64
	Failures int64
	// PeersSkipped counts ring positions passed over because the peer
	// was cooling down after failures (per-peer failure backoff).
	PeersSkipped int64
	// EntriesSent counts extracts pushed to peers, EntriesReceived the
	// delta entries peers returned, EntriesMerged the received entries
	// that would raise a ledger record, verified, and were folded in
	// (an entry that would raise nothing is neither checked nor counted).
	EntriesSent     int64
	EntriesReceived int64
	EntriesMerged   int64
	// OffersServed counts reputation/offer calls answered for peers
	// (counted even on nodes that initiate no rounds themselves).
	OffersServed int64
	// LastPeer and LastUnixNano identify the most recent initiated
	// round.
	LastPeer     string
	LastUnixNano int64
	// Role is the node's federation tier ("flat", "member",
	// "aggregator").
	Role string
	// UrgentSent counts protocol replies this node wrapped with urgent
	// quarantine-level extracts; UrgentMerged counts urgent entries
	// received on replies that were adopted: they would raise a ledger
	// record, verified, and merged. Entries that would raise nothing are
	// not checked and not counted.
	UrgentSent   int64
	UrgentMerged int64
	// ExtractsSigned counts own ledger extracts this node signed;
	// ExtractsReused those it reissued unchanged because the ledger
	// record behind them had not been raised since they were signed and,
	// above the gossip merge cap, no new grid cell (a 64th of the
	// half-life) had begun (departures, exchange rounds and urgent
	// baggage alike).
	// VerifyMisses counts received entries whose signature this node
	// checked; VerifyHits those it had already verified byte for byte
	// and did not check again (an entry that could raise nothing here,
	// on an agent that never departed, is in neither: nobody needed its
	// signature). Reused/(Signed+Reused) and Hits/(Hits+Misses) are the
	// node's memo hit rates; both memos are per node and counted whether
	// or not an exchange loop runs.
	ExtractsSigned int64
	ExtractsReused int64
	VerifyHits     int64
	VerifyMisses   int64
	// ClaimsDominated counts the gossip claims this node left out of
	// departing bags because another claim it carries outweighs them at
	// every time: received entries dropped unchecked, plus own extracts
	// left unsigned (DESIGN §5, "Dominated claims are neither checked nor
	// carried").
	ClaimsDominated int64
}

// ExchangeReporter is the optional Mechanism extension that exposes
// exchange statistics; enabled is false when the mechanism serves
// offers but runs no loop of its own.
type ExchangeReporter interface {
	ExchangeStats() (stats ExchangeStats, enabled bool)
}

// ExchangePeerUpdater is the optional Mechanism extension that lets a
// running exchange loop adopt a new fleet membership without a node
// restart — the peer-update path campaigns use when nodes join, leave,
// or rotate identities mid-run. Implementations must preserve per-peer
// backoff state for peers present in both the old and new lists.
type ExchangePeerUpdater interface {
	// UpdateExchangePeers replaces the loop's peer ring. The list is
	// normalized like ExchangeConfig.Peers (self and duplicates
	// dropped); an empty usable list is an error — disable the
	// exchange by closing the node, not by starving its ring.
	UpdateExchangePeers(peers []string) error
}

package core

import (
	"context"
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
	// budget over ExchangeConfig.Budget: aggregator↔aggregator rounds
	// carry a whole sub-fleet's worth of extracts, so they get more
	// room (clamped to the max).
	DefaultAggregatorBudgetFactor = 4
)

// ExchangeConfig configures a node's anti-entropy reputation exchange.
// The zero value disables it.
type ExchangeConfig struct {
	// Peers is the fleet address list a flat node draws partners from
	// (the node's own name is skipped). Empty disables the exchange
	// unless Aggregators is set.
	Peers []string
	// Interval paces the rounds; one scheduler-picked peer is visited
	// per round. 0 means DefaultExchangeInterval.
	Interval time.Duration
	// Budget bounds the ledger extracts each side contributes per
	// round. 0 means DefaultExchangeBudget; values above
	// MaxExchangeBudget are clamped.
	Budget int

	// Aggregators names the designated aggregator nodes, and the list
	// alone sets the node's federation tier. Empty: the node is flat
	// and draws partners from Peers. Naming the node: it is an
	// aggregator, draws partners from the other aggregators, and
	// trades DefaultAggregatorBudgetFactor × Budget per round (a sole
	// aggregator initiates no rounds but still serves its members'
	// offers). Not naming it: it is a member and draws partners from
	// the aggregators only.
	Aggregators []string

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
	// Role is the node's federation tier as its aggregator list sets
	// it: "flat" (no list), "aggregator" (named in the list) or
	// "member" (not named).
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
	// UpdateExchangePeers re-derives the loop's partner pool from a
	// new fleet membership by the rule ExchangeConfig.Aggregators
	// states: the whole list on a flat node, the aggregators still on
	// it on a federated one (self and duplicates dropped). A pool left
	// empty is an error except on an aggregator — disable the exchange
	// by closing the node, not by starving its pool.
	UpdateExchangePeers(peers []string) error
}

package policy

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/transport"
)

// gossipEndpoint adapts one host's gossip mechanism to the transport
// endpoint shape, standing in for a full core.Node: the exchange only
// needs the "reputation/offer" dispatch.
type gossipEndpoint struct {
	hc *core.HostContext
	g  *Gossip
}

func (e gossipEndpoint) HandleAgent(context.Context, []byte) error { return nil }

func (e gossipEndpoint) HandleCall(ctx context.Context, method string, body []byte) ([]byte, error) {
	name, rest, ok := strings.Cut(method, "/")
	if !ok || name != GossipMechanismName {
		return nil, transport.ErrUnknownMethod
	}
	return e.g.HandleCall(ctx, e.hc, rest, body)
}

// exNode is one fleet member of an exchange test bed.
type exNode struct {
	name string
	hc   *core.HostContext
	g    *Gossip
	led  *Ledger
	x    *Exchange
	stop func()
}

// exBed is a fleet of gossip mechanisms wired over InProc with frozen
// clocks, so merge results are exactly reproducible.
type exBed struct {
	nodes []*exNode
	net   *transport.InProc
}

func exName(i int) string { return fmt.Sprintf("n%d", i) }

// newExBed builds n nodes; peers[i] is node i's exchange peer list.
// Nodes with a nil peer list get no exchange loop (responder-only).
func newExBed(t *testing.T, n int, peers [][]string, register func(i int) bool) *exBed {
	t.Helper()
	return newExBedCfg(t, n, func(i int) *core.ExchangeConfig {
		if peers[i] == nil {
			return nil
		}
		return &core.ExchangeConfig{Peers: peers[i]}
	}, register)
}

// newExBedCfg is newExBed with a full per-node exchange configuration
// (roles, aggregator lists); nil means no exchange loop. The interval
// is parked regardless — rounds are driven manually via Step.
func newExBedCfg(t *testing.T, n int, cfgFor func(i int) *core.ExchangeConfig, register func(i int) bool) *exBed {
	t.Helper()
	reg := sigcrypto.NewRegistry()
	net := transport.NewInProc()
	fixed := time.Now()
	now := func() time.Time { return fixed }
	bed := &exBed{net: net}
	for i := 0; i < n; i++ {
		name := exName(i)
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		led := NewLedger(LedgerConfig{HalfLife: time.Hour, Now: now})
		g := NewGossip(led)
		g.now = now
		node := &exNode{
			name: name,
			hc:   &core.HostContext{Host: h, Net: net},
			g:    g,
			led:  led,
		}
		if register == nil || register(i) {
			net.Register(name, gossipEndpoint{hc: node.hc, g: g})
		}
		bed.nodes = append(bed.nodes, node)
	}
	for i, node := range bed.nodes {
		cfg := cfgFor(i)
		if cfg == nil {
			continue
		}
		cfg.Interval = time.Hour
		stop, err := node.g.StartExchange(context.Background(), node.hc, *cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.x = node.g.Exchange()
		node.stop = stop
		t.Cleanup(stop)
	}
	return bed
}

// stepAll runs one exchange round on every looped node.
func (b *exBed) stepAll(ctx context.Context) {
	for _, n := range b.nodes {
		if n.x != nil {
			_ = n.x.Step(ctx)
		}
	}
}

// TestExchangeConvergenceRandomTopologies: on random connected
// topologies, a single node's first-hand detection reaches every node
// in the fleet within a bounded number of rounds, with zero agent
// traffic involved.
func TestExchangeConvergenceRandomTopologies(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		n := 4 + rng.Intn(7) // 4..10 nodes
		peers := make([][]string, n)
		for i := 0; i < n; i++ {
			peers[i] = []string{exName((i + 1) % n)} // ring keeps it connected
			for j := 0; j < n; j++ {
				if j != i && rng.Intn(3) == 0 {
					peers[i] = append(peers[i], exName(j))
				}
			}
		}
		bed := newExBed(t, n, peers, nil)
		bed.nodes[0].led.Observe("mallory", false, maxMergeSuspicion)

		maxRounds := 4 * n
		rounds := 0
		converged := func() bool {
			for _, node := range bed.nodes {
				if node.led.Suspicion("mallory") < DefaultEscalateThreshold {
					return false
				}
			}
			return true
		}
		for ; rounds < maxRounds && !converged(); rounds++ {
			bed.stepAll(ctx)
		}
		if !converged() {
			for _, node := range bed.nodes {
				t.Logf("trial %d: %s suspicion %.3f", trial, node.name, node.led.Suspicion("mallory"))
			}
			t.Fatalf("trial %d: fleet of %d did not converge within %d rounds", trial, n, maxRounds)
		}
		t.Logf("trial %d: fleet of %d converged in %d rounds", trial, n, rounds)
	}
}

// TestExchangeOfferIdempotent: replaying or duplicating an offer — the
// adversary's cheapest move against an anti-entropy protocol — changes
// nothing: merge is a decayed max, so the second application is a
// no-op.
func TestExchangeOfferIdempotent(t *testing.T) {
	ctx := context.Background()
	bed := newExBed(t, 2, [][]string{{exName(1)}, {exName(0)}}, nil)
	a, b := bed.nodes[0], bed.nodes[1]
	a.led.Observe("mallory", false, 0)

	// First round: B learns via A's push; A pulls nothing new.
	if err := a.x.Step(ctx); err != nil {
		t.Fatal(err)
	}
	want := b.led.Suspicion("mallory")
	if want <= 0 {
		t.Fatal("push half did not reach B")
	}

	// Build the identical offer by hand and replay it straight into B's
	// handler twice more.
	push := a.g.extracts(a.led.rows(), a.name, a.hc.Host.Keys(), 16, nil)
	body, err := encodeOffer(a.name, 16, nil, push)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.g.HandleCall(ctx, b.hc, "offer", body); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.led.Suspicion("mallory"); got != want {
		t.Fatalf("replayed offer changed B's ledger: %v -> %v", want, got)
	}

	// Duplicate full rounds are idempotent too, in both directions.
	aView := a.led.Suspicion("mallory")
	for i := 0; i < 3; i++ {
		if err := a.x.Step(ctx); err != nil {
			t.Fatal(err)
		}
		if err := b.x.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.led.Suspicion("mallory"); got != want {
		t.Fatalf("duplicated rounds changed B's ledger: %v -> %v", want, got)
	}
	if got := a.led.Suspicion("mallory"); got != aView {
		t.Fatalf("duplicated rounds changed A's first-hand view: %v -> %v", aView, got)
	}
}

// TestExchangePartitionedNodeCatchesUp: a node partitioned away (down,
// unreachable — the exchanges the rest of the fleet attempts against
// it fail and are counted) learns nothing while the others converge,
// and pulls the whole picture within one tour of its peer ring after
// the heal.
func TestExchangePartitionedNodeCatchesUp(t *testing.T) {
	ctx := context.Background()
	const n = 4
	peers := make([][]string, n)
	for i := 0; i < n-1; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				peers[i] = append(peers[i], exName(j))
			}
		}
	}
	// Node 3 starts partitioned: unregistered, no loop of its own yet.
	bed := newExBed(t, n, peers, func(i int) bool { return i != 3 })
	part := bed.nodes[3]
	bed.nodes[0].led.Observe("mallory", false, maxMergeSuspicion)

	for r := 0; r < 3*n; r++ {
		bed.stepAll(ctx)
	}
	for _, node := range bed.nodes[:3] {
		if node.led.Suspicion("mallory") < DefaultEscalateThreshold {
			t.Fatalf("connected fleet did not converge at %s", node.name)
		}
		// Rounds that drew the partitioned peer failed and were counted.
		if st := node.x.Stats(); st.Failures == 0 {
			t.Fatalf("%s saw no failed rounds against the partitioned peer: %+v", node.name, st)
		}
	}
	if got := part.led.Suspicion("mallory"); got != 0 {
		t.Fatalf("partitioned node learned suspicion %v while unreachable", got)
	}

	// Heal: the node comes back and starts exchanging; its own pulls
	// catch it up within one tour of its peer ring.
	bed.net.Register(part.name, gossipEndpoint{hc: part.hc, g: part.g})
	stop, err := part.g.StartExchange(ctx, part.hc, core.ExchangeConfig{
		Peers:    []string{exName(0), exName(1), exName(2)},
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	part.x = part.g.Exchange()
	for r := 0; r < n && part.led.Suspicion("mallory") < DefaultEscalateThreshold; r++ {
		_ = part.x.Step(ctx)
	}
	if got := part.led.Suspicion("mallory"); got < DefaultEscalateThreshold {
		t.Fatalf("healed node did not catch up: suspicion %v", got)
	}
}

// TestExchangeByteBudgetWithLongNames: a fleet whose ledger tracks
// many hosts with long principal names at the maximum entry budget
// must still produce encodable offers and deltas — extract and summary
// selection stop at the wire byte budget instead of failing the round.
func TestExchangeByteBudgetWithLongNames(t *testing.T) {
	ctx := context.Background()
	bed := newExBed(t, 2, [][]string{{exName(1)}, nil}, nil)
	a, b := bed.nodes[0], bed.nodes[1]
	longName := func(i int) string {
		return fmt.Sprintf("%0200d-suspect", i) // 208-byte names, under maxPrincipalLen
	}
	for i := 0; i < 400; i++ {
		a.led.Observe(longName(i), false, 2)
	}
	// A principal name over the wire bound cannot be encoded at all:
	// selection must skip it instead of failing every departure and
	// round it would ride in.
	unencodable := string(make([]byte, maxPrincipalLen+1))
	a.led.Observe(unencodable, false, 9)

	push := a.g.extracts(a.led.rows(), a.name, a.hc.Host.Keys(), core.MaxExchangeBudget, nil)
	if len(push) == 0 {
		t.Fatal("no extracts selected")
	}
	for _, e := range push {
		if e.Host == unencodable {
			t.Fatal("over-bound principal name selected for the wire")
		}
	}
	enc, err := encodeEntries(push)
	if err != nil {
		t.Fatalf("byte-budgeted extracts do not encode: %v", err)
	}
	if len(enc) > MaxGossipWireBytes {
		t.Fatalf("encoded extracts %d bytes over %d", len(enc), MaxGossipWireBytes)
	}

	// The whole round survives end to end, and the responder learns the
	// most suspect hosts first.
	if err := a.x.Step(ctx); err != nil {
		t.Fatalf("max-budget round with long names failed: %v", err)
	}
	if st, _ := a.g.ExchangeStats(); st.Failures != 0 || st.EntriesSent == 0 {
		t.Fatalf("round stats = %+v", st)
	}
	if got := b.led.Suspicion(longName(0)); got <= 0 {
		t.Fatal("responder learned nothing from the budgeted push")
	}
}

// TestExchangeStatsAndReputationReporting pins the stats surface: the
// client loop counts rounds/entries, the responder counts offers
// served, and both flow through Gossip.ExchangeStats.
func TestExchangeStatsAndReputationReporting(t *testing.T) {
	ctx := context.Background()
	bed := newExBed(t, 2, [][]string{{exName(1)}, nil}, nil)
	a, b := bed.nodes[0], bed.nodes[1]
	a.led.Observe("mallory", false, 0)

	if err := a.x.Step(ctx); err != nil {
		t.Fatal(err)
	}
	st, enabled := a.g.ExchangeStats()
	if !enabled {
		t.Fatal("exchange loop not reported enabled on the initiator")
	}
	if st.Rounds != 1 || st.Failures != 0 || st.EntriesSent != 1 || st.LastPeer != b.name {
		t.Fatalf("initiator stats = %+v", st)
	}
	bst, benabled := b.g.ExchangeStats()
	if benabled {
		t.Fatal("responder-only node reported an exchange loop")
	}
	if bst.OffersServed != 1 {
		t.Fatalf("responder stats = %+v", bst)
	}

	// Double-start is refused: one loop per mechanism instance.
	if _, err := a.g.StartExchange(ctx, a.hc, core.ExchangeConfig{Peers: []string{b.name}}); err == nil {
		t.Fatal("second StartExchange on one mechanism succeeded")
	}
	// Close is how protection.Stack tears the loop down; idempotent
	// with the node-side stop.
	if err := a.g.Close(); err != nil {
		t.Fatal(err)
	}
	a.stop()
}

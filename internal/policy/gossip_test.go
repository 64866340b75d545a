package policy

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
)

// gossipBed builds named hosts sharing one registry, each with its own
// ledger and gossip mechanism, all on one clock that does not move: a
// suspicion read back is exact, not decayed by however long the test
// took to get there.
type gossipBed struct {
	reg   *sigcrypto.Registry
	now   func() time.Time
	hosts map[string]*core.HostContext
	mechs map[string]*Gossip
	leds  map[string]*Ledger
}

func newGossipBed(t testing.TB, names ...string) *gossipBed {
	t.Helper()
	_, now := testClock(time.Unix(1_700_000_000, 0))
	bed := &gossipBed{
		reg:   sigcrypto.NewRegistry(),
		now:   now,
		hosts: make(map[string]*core.HostContext),
		mechs: make(map[string]*Gossip),
		leds:  make(map[string]*Ledger),
	}
	for _, name := range names {
		keys, err := sigcrypto.GenerateKeyPair(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := host.New(host.Config{Name: name, Keys: keys, Registry: bed.reg})
		if err != nil {
			t.Fatal(err)
		}
		led := NewLedger(LedgerConfig{HalfLife: time.Hour, Now: now})
		g := NewGossip(led)
		g.SetClock(now)
		bed.hosts[name] = &core.HostContext{Host: h}
		bed.mechs[name] = g
		bed.leds[name] = led
	}
	return bed
}

func mkGossipAgent(t testing.TB) *agent.Agent {
	t.Helper()
	ag, err := agent.New("gossip-agent", "owner", `proc main() { done() }`, "main")
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

func setEntries(t *testing.T, ag *agent.Agent, entries []GossipEntry) {
	t.Helper()
	enc, err := encodeEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	ag.SetBaggage(GossipMechanismName, enc)
}

// TestGossipRoundTrip: a detection at A travels to B in agent baggage
// and lands, damped, in B's ledger.
func TestGossipRoundTrip(t *testing.T) {
	ctx := context.Background()
	bed := newGossipBed(t, "a", "b")
	bed.leds["a"].Observe("mallory", false, 0)

	ag := mkGossipAgent(t)
	if err := bed.mechs["a"].PrepareDeparture(ctx, bed.hosts["a"], ag, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bed.mechs["b"].CheckAfterSession(ctx, bed.hosts["b"], ag); err != nil {
		t.Fatal(err)
	}
	got := bed.leds["b"].Suspicion("mallory")
	if got != 0.9 { // 1.0 damped by 0.9, no decay on the bed's clock
		t.Fatalf("gossiped suspicion at b = %v, want 0.9", got)
	}
}

// TestGossipForgedFloodDoesNotCrowdOutHonestExtracts pins the re-carry
// rule: entries that fail arrival verification are dropped from the
// baggage an honest host sends onward, so a malicious host cannot pad
// the maxGossipEntries cap with junk and suppress real gossip.
func TestGossipForgedFloodDoesNotCrowdOutHonestExtracts(t *testing.T) {
	ctx := context.Background()
	bed := newGossipBed(t, "honest", "next")
	bed.leds["honest"].Observe("mallory", false, 0)

	// A full cap of forged max-suspicion entries from an unregistered
	// observer, plus garbage signatures.
	forged := make([]GossipEntry, maxGossipEntries)
	for i := range forged {
		forged[i] = GossipEntry{
			Observer:   "forger",
			Host:       "victim",
			Suspicion:  math.MaxFloat64,
			AtUnixNano: bed.now().UnixNano(),
			Sig:        sigcrypto.Signature{Signer: "forger", Sig: []byte("junk")},
		}
	}
	ag := mkGossipAgent(t)
	setEntries(t, ag, forged)

	if _, err := bed.mechs["honest"].CheckAfterSession(ctx, bed.hosts["honest"], ag); err != nil {
		t.Fatal(err)
	}
	if got := bed.leds["honest"].Suspicion("victim"); got != 0 {
		t.Fatalf("forged entries merged: victim suspicion %v", got)
	}
	if err := bed.mechs["honest"].PrepareDeparture(ctx, bed.hosts["honest"], ag, nil); err != nil {
		t.Fatal(err)
	}
	data, ok := ag.GetBaggage(GossipMechanismName)
	if !ok {
		t.Fatal("honest host attached no gossip")
	}
	out := decodeEntries(data)
	if len(out) != 1 || out[0].Observer != "honest" || out[0].Host != "mallory" {
		t.Fatalf("departure baggage = %+v, want only honest's own extract about mallory", out)
	}
	// And a pure-junk carrier is stripped entirely.
	ag2 := mkGossipAgent(t)
	setEntries(t, ag2, forged)
	bed2 := newGossipBed(t, "clean")
	if _, err := bed2.mechs["clean"].CheckAfterSession(ctx, bed2.hosts["clean"], ag2); err != nil {
		t.Fatal(err)
	}
	if err := bed2.mechs["clean"].PrepareDeparture(ctx, bed2.hosts["clean"], ag2, nil); err != nil {
		t.Fatal(err)
	}
	if _, still := ag2.GetBaggage(GossipMechanismName); still {
		t.Error("unverifiable gossip baggage not stripped by a host with nothing to share")
	}
}

// TestGossipDefamationCapped pins the merge cap: even a validly signed
// astronomical claim cannot push a victim's suspicion beyond the merge
// ceiling.
func TestGossipDefamationCapped(t *testing.T) {
	ctx := context.Background()
	bed := newGossipBed(t, "defamer", "receiver")

	e := GossipEntry{
		Observer:  "defamer",
		Host:      "victim",
		Suspicion: 1e12,
		// Dated as far ahead as a receiver admits (a 64th of the
		// half-life), trying to dodge decay.
		AtUnixNano: bed.now().Add(time.Hour / 64).UnixNano(),
	}
	e.Sig = bed.hosts["defamer"].Host.Keys().SignDigest(e.bindingDigest())
	ag := mkGossipAgent(t)
	setEntries(t, ag, []GossipEntry{e})

	if _, err := bed.mechs["receiver"].CheckAfterSession(ctx, bed.hosts["receiver"], ag); err != nil {
		t.Fatal(err)
	}
	got := bed.leds["receiver"].Suspicion("victim")
	want := maxMergeSuspicion * 0.9
	if got <= 0 || got > want+1e-9 {
		t.Fatalf("defamed suspicion = %v, want in (0, %v]", got, want)
	}
}

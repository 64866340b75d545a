package refproto

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/canon"
)

// TestSessionDigestsAreTheTuple pins the two digests a session signature
// covers to the canon tuples they frame, materialized: signatures cross
// hosts of different builds, so the digests' bytes may never change.
func TestSessionDigestsAreTheTuple(t *testing.T) {
	s := session{
		Initial:  canon.HashBytes([]byte("initial")),
		Result:   canon.HashBytes([]byte("result")),
		Package:  canon.HashBytes([]byte("package")),
		Envelope: canon.HashBytes([]byte("envelope")),
	}
	for _, route := range [][]string{nil, {"home"}, {"home", "", "shop-with-a-longer-name"}} {
		fields := [][]byte{[]byte(sessionLabel), s.Initial[:], s.Result[:], s.Package[:], s.Envelope[:]}
		for _, h := range route {
			fields = append(fields, []byte(h))
		}
		if got, want := s.digest(route), canon.HashBytes(canon.Tuple(fields...)); got != want {
			t.Errorf("route %q: session digest %s, tuple %s", route, got, want)
		}
	}

	ag, err := agent.New("a1", "owner", "proc main() {}", "main")
	if err != nil {
		t.Fatal(err)
	}
	want := func() canon.Digest {
		fields := [][]byte{[]byte(envelopeLabel), []byte(ag.Owner), []byte(ag.Entry)}
		for _, k := range ag.BaggageKeys() {
			if k != MechanismName {
				fields = append(fields, []byte(k), ag.Baggage[k])
			}
		}
		return canon.HashBytes(canon.Tuple(fields...))
	}
	if got := envelope(ag); got != want() {
		t.Errorf("envelope without baggage: %s, tuple %s", got, want())
	}
	ag.SetBaggage("zeta", []byte("z"))
	ag.SetBaggage(MechanismName, []byte("the signature's own slot"))
	ag.SetBaggage("alpha", nil)
	if got := envelope(ag); got != want() {
		t.Errorf("envelope with baggage: %s, tuple %s", got, want())
	}
}

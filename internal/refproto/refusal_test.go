package refproto

import (
	"context"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sigcrypto"
	"repro/internal/value"
)

// TestPackageRefusalsReadAsBefore: the checker reads the reference
// package from its bytes, but each refusal reads as it did when it
// decoded the package first. A malformed package's verdict carries the
// decoder's own wording, and the rest fail on the first digest or
// identity that does not hold, before the gate: so with it skipping
// the re-execution or not.
func TestPackageRefusalsReadAsBefore(t *testing.T) {
	// repackage packages the bed's session with edit applied to a copy
	// of its record.
	repackage := func(t *testing.T, bed *hopBed, edit func(*host.SessionRecord)) ([]byte, canon.Digest) {
		r := bed.rec
		rec := &host.SessionRecord{HostName: r.HostName, Hop: r.Hop, Entry: r.Entry, ResultEntry: r.ResultEntry,
			Initial: r.Initial, Resulting: r.Resulting, Input: r.Input}
		edit(rec)
		enc, sums, err := core.PackageSession(bed.mPrev.check, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return enc, sums.Digest
	}
	// commit re-signs the session over enc, committing to digest.
	commit := func(keys *sigcrypto.KeyPair, bed *hopBed, enc []byte, digest canon.Digest) error {
		return resign(keys, bed.ag, func(p *payload) { p.PkgEnc, p.Session.Package = enc, digest })
	}
	// recommit re-signs the session over its package with edit applied.
	recommit := func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed, edit func(*host.SessionRecord)) {
		enc, digest := repackage(t, bed, edit)
		if err := commit(keys, bed, enc, digest); err != nil {
			t.Fatal(err)
		}
	}
	malformed := func(enc []byte) string {
		_, err := core.UnmarshalReferencePackage(enc)
		if err == nil {
			t.Fatal("forged package decodes")
		}
		return "malformed reference package: " + err.Error()
	}
	other := value.State{"x": value.Int(999)}
	rows := []struct {
		name  string
		forge func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed) (reason string)
	}{
		{"junk bytes", func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed) string {
			enc := []byte("junk")
			if err := commit(keys, bed, enc, canon.HashBytes(enc)); err != nil {
				t.Fatal(err)
			}
			return malformed(enc)
		}},
		{"non-canonical initial state", func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed) string {
			honest, _ := repackage(t, bed, func(*host.SessionRecord) {})
			s, err := canon.ScanTuple(honest)
			if err != nil {
				t.Fatal(err)
			}
			var fields [][]byte
			for s.Len() > 0 {
				fields = append(fields, s.Field(len(honest)))
			}
			bent := canon.EncodeState(value.State{"b": value.Bool(true)})
			bent[len(bent)-1] = 2
			fields[6] = bent
			enc := canon.Tuple(fields...)
			if err := commit(keys, bed, enc, canon.HashBytes(enc)); err != nil {
				t.Fatal(err)
			}
			return malformed(enc)
		}},
		{"another session's hop", func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed) string {
			recommit(t, keys, bed, func(r *host.SessionRecord) { r.Hop = 1 })
			return "package identifies session 1@prev, expected 0@prev"
		}},
		{"another host's session", func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed) string {
			recommit(t, keys, bed, func(r *host.SessionRecord) { r.HostName = "other" })
			return "package identifies session 0@other, expected 0@prev"
		}},
		{"package the session does not sign", func(t *testing.T, _ *sigcrypto.KeyPair, bed *hopBed) string {
			enc, _ := repackage(t, bed, func(r *host.SessionRecord) { r.Input = nil })
			if err := CarryPackage(bed.ag, enc); err != nil {
				t.Fatal(err)
			}
			return "package differs from the signed session commitment"
		}},
		{"another resulting state", func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed) string {
			recommit(t, keys, bed, func(r *host.SessionRecord) { r.Resulting = other })
			return "package resulting state differs from the signed commitment"
		}},
		{"another initial state", func(t *testing.T, keys *sigcrypto.KeyPair, bed *hopBed) string {
			recommit(t, keys, bed, func(r *host.SessionRecord) { r.Initial = other })
			return "package initial state differs from the signed commitment"
		}},
	}
	for _, row := range rows {
		for _, reexec := range []bool{false, true} {
			bed := newHopBed(t, bedConfig{vars: 2, inputs: 2})
			bed.gated(reexec)
			if err := bed.mPrev.PrepareDeparture(context.Background(), bed.hcPrev, bed.ag, bed.rec); err != nil {
				t.Fatal(err)
			}
			want := row.forge(t, bed.hcPrev.Host.Keys(), bed)
			v, err := bed.mNext.CheckAfterSession(context.Background(), bed.hcNext, bed.migrate(t))
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			if v == nil || v.OK || v.Reason != want || v.Suspect != "prev" {
				t.Errorf("%s (re-execute %t): verdict %+v, want prev blamed: %q", row.name, reexec, v, want)
			}
		}
	}
}

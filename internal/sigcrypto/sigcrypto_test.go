package sigcrypto

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/canon"
)

func mustKey(t *testing.T, id string) *KeyPair {
	t.Helper()
	kp, err := GenerateKeyPair(id)
	if err != nil {
		t.Fatalf("GenerateKeyPair(%q): %v", id, err)
	}
	return kp
}

func TestGenerateKeyPairEmptyID(t *testing.T) {
	if _, err := GenerateKeyPair(""); err == nil {
		t.Fatal("empty principal id accepted")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	kp := mustKey(t, "host-a")
	reg := NewRegistry()
	if err := reg.RegisterKeyPair(kp); err != nil {
		t.Fatal(err)
	}
	msg := []byte("agent state digest")
	sig := kp.Sign(msg)
	if sig.Signer != "host-a" {
		t.Errorf("signature attributed to %q", sig.Signer)
	}
	if err := reg.Verify(msg, sig); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
}

func TestVerifyTamperedMessage(t *testing.T) {
	kp := mustKey(t, "host-a")
	reg := NewRegistry()
	if err := reg.RegisterKeyPair(kp); err != nil {
		t.Fatal(err)
	}
	sig := kp.Sign([]byte("original"))
	err := reg.Verify([]byte("tampered"), sig)
	if !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered message: err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyUnknownSigner(t *testing.T) {
	kp := mustKey(t, "ghost")
	reg := NewRegistry()
	err := reg.Verify([]byte("m"), kp.Sign([]byte("m")))
	if !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("unknown signer: err = %v, want ErrUnknownSigner", err)
	}
}

func TestVerifyWrongSignerAttribution(t *testing.T) {
	a, b := mustKey(t, "a"), mustKey(t, "b")
	reg := NewRegistry()
	if err := reg.RegisterKeyPair(a); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterKeyPair(b); err != nil {
		t.Fatal(err)
	}
	// b signs but claims to be a.
	sig := b.Sign([]byte("m"))
	sig.Signer = "a"
	if err := reg.Verify([]byte("m"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("misattributed signature: err = %v, want ErrBadSignature", err)
	}
}

func TestRegistryRejectsKeySubstitution(t *testing.T) {
	a1, a2 := mustKey(t, "a"), mustKey(t, "a")
	reg := NewRegistry()
	if err := reg.Register("a", a1.Public()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("a", a1.Public()); err != nil {
		t.Errorf("idempotent re-register failed: %v", err)
	}
	if err := reg.Register("a", a2.Public()); err == nil {
		t.Error("key substitution accepted")
	}
}

func TestRegistryRejectsBadKey(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("a", []byte{1, 2, 3}); err == nil {
		t.Error("short public key accepted")
	}
	if err := reg.Register("", mustKey(t, "x").Public()); err == nil {
		t.Error("empty id accepted")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	kp := mustKey(t, "shared")
	if err := reg.RegisterKeyPair(kp); err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	sig := kp.Sign(msg)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := reg.Verify(msg, sig); err != nil {
					t.Errorf("concurrent verify: %v", err)
					return
				}
				if err := reg.Register(fmt.Sprintf("p%d-%d", i, j), kp.Public()); err != nil {
					t.Errorf("concurrent register: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSignDigestDomainSeparation(t *testing.T) {
	kp := mustKey(t, "a")
	reg := NewRegistry()
	if err := reg.RegisterKeyPair(kp); err != nil {
		t.Fatal(err)
	}
	d := canon.HashBytes([]byte("payload"))
	sig := kp.SignDigest(d)
	if err := reg.VerifyDigest(d, sig); err != nil {
		t.Errorf("digest signature rejected: %v", err)
	}
	// A digest signature must not verify as a raw signature over d[:].
	if err := reg.Verify(d[:], sig); err == nil {
		t.Error("digest signature verified as raw message signature")
	}
}

func BenchmarkSign(b *testing.B) {
	kp, err := GenerateKeyPair("bench")
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kp.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	kp, err := GenerateKeyPair("bench")
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.RegisterKeyPair(kp); err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	sig := kp.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrustIsOneWay: Trust marks only the named principal, and nothing
// unmarks it.
func TestTrustIsOneWay(t *testing.T) {
	r := NewRegistry()
	if r.Trusted("home") {
		t.Fatal("a fresh registry trusts home")
	}
	r.Trust("home")
	r.Trust("home")
	if !r.Trusted("home") || r.Trusted("shop") {
		t.Fatalf("trusted home=%v shop=%v, want true and false", r.Trusted("home"), r.Trusted("shop"))
	}
}

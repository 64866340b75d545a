// Package sigcrypto provides the cryptographic substrate used by every
// protection mechanism: principal key pairs, a verification registry
// (standing in for a PKI), detached signatures, and multi-signed
// envelopes binding payload digests to principals.
//
// The paper's measurement used DSA with 512-bit keys from the IAIK-JCE
// library. DSA-512 is obsolete and absent from the Go standard library,
// so this reproduction substitutes Ed25519 + SHA-256 (see DESIGN.md §2).
// The substitution preserves what the experiments measure: a per-message
// public-key operation whose cost is dominated by a fixed term and only
// mildly sensitive to message size.
package sigcrypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"repro/internal/canon"
)

// Errors returned by verification.
var (
	// ErrUnknownSigner is returned when a signature names a principal
	// that is not present in the registry.
	ErrUnknownSigner = errors.New("sigcrypto: unknown signer")
	// ErrBadSignature is returned when a signature does not verify.
	ErrBadSignature = errors.New("sigcrypto: signature verification failed")
)

// KeyPair is the signing identity of a principal (a host or an agent
// owner). The private key never leaves the process that generated it;
// only the public half is registered.
type KeyPair struct {
	id   string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh signing identity for the named
// principal.
func GenerateKeyPair(id string) (*KeyPair, error) {
	if id == "" {
		return nil, errors.New("sigcrypto: principal id must not be empty")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sigcrypto: generating key for %q: %w", id, err)
	}
	return &KeyPair{id: id, pub: pub, priv: priv}, nil
}

// ID returns the principal name this key pair belongs to.
func (k *KeyPair) ID() string { return k.id }

// Public returns the public key.
func (k *KeyPair) Public() ed25519.PublicKey { return k.pub }

// Sign produces a detached signature over msg.
func (k *KeyPair) Sign(msg []byte) Signature {
	return Signature{Signer: k.id, Sig: ed25519.Sign(k.priv, msg)}
}

// SignDigest signs a canonical digest, framing it so digest signatures
// can never be confused with raw message signatures.
func (k *KeyPair) SignDigest(d canon.Digest) Signature {
	return k.Sign(digestMessage(d))
}

// digestMessage is the framed message SignDigest covers and
// VerifyDigest (and batch digest entries) check.
func digestMessage(d canon.Digest) []byte {
	return canon.Tuple([]byte("digest"), d[:])
}

// Signature is a detached signature attributable to a principal.
type Signature struct {
	Signer string
	Sig    []byte
}

// MaxSigLen bounds a signature's bytes in the record codecs (Ed25519
// signatures are 64 bytes; the slack admits another scheme without
// unbounding the field).
const MaxSigLen = 128

// AppendWire appends s to a record's tuple fields as two fields, the
// signer and then the signature bytes, refusing a signature
// ScanSignature would reject.
func (s Signature) AppendWire(fields [][]byte) ([][]byte, error) {
	if len(s.Signer) > canon.MaxNameLen || len(s.Sig) > MaxSigLen {
		return nil, fmt.Errorf("sigcrypto: signature field over its wire bound: %w", canon.ErrMalformed)
	}
	return append(fields, []byte(s.Signer), s.Sig), nil
}

// ScanSignature reads the two fields AppendWire writes into sig; an
// over-bound field fails the scanner. With sig nil the fields are only
// checked, which allocates nothing. The signature bytes are copied out
// of the input, and an empty signature reads back as nil.
func ScanSignature(s *canon.TupleScanner, sig *Signature) {
	signer, b := s.Field(canon.MaxNameLen), s.Field(MaxSigLen)
	if sig == nil {
		return
	}
	*sig = Signature{Signer: string(signer)}
	if len(b) > 0 {
		sig.Sig = append([]byte(nil), b...)
	}
}

// Registry maps principal names to public keys. It simulates the PKI /
// certificate infrastructure the paper assumes ("the mechanism uses
// digital signatures ... to authenticate the data a host produces"),
// and says which principals the agent owners trust. It is safe for
// concurrent use.
type Registry struct {
	mu      sync.RWMutex
	keys    map[string]ed25519.PublicKey
	trusted map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]ed25519.PublicKey), trusted: make(map[string]bool)}
}

// Trust marks a principal as trusted by the agent owners, for good:
// there is no way back.
func (r *Registry) Trust(id string) {
	r.mu.Lock()
	r.trusted[id] = true
	r.mu.Unlock()
}

// Trusted reports whether id was marked trusted.
func (r *Registry) Trusted(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.trusted[id]
}

// Register records the public key of a principal. Re-registering the
// same principal with a different key is rejected: key substitution is
// exactly the attack a PKI prevents.
func (r *Registry) Register(id string, pub ed25519.PublicKey) error {
	if id == "" {
		return errors.New("sigcrypto: principal id must not be empty")
	}
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("sigcrypto: bad public key size %d for %q", len(pub), id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.keys[id]; ok {
		if !prev.Equal(pub) {
			return fmt.Errorf("sigcrypto: principal %q already registered with a different key", id)
		}
		return nil
	}
	r.keys[id] = append(ed25519.PublicKey(nil), pub...)
	return nil
}

// RegisterKeyPair registers the public half of kp.
func (r *Registry) RegisterKeyPair(kp *KeyPair) error {
	return r.Register(kp.ID(), kp.Public())
}

// Verify checks a detached signature over msg.
func (r *Registry) Verify(msg []byte, sig Signature) error {
	r.mu.RLock()
	pub, ok := r.keys[sig.Signer]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSigner, sig.Signer)
	}
	if !ed25519.Verify(pub, msg, sig.Sig) {
		return fmt.Errorf("%w: signer %q", ErrBadSignature, sig.Signer)
	}
	return nil
}

// VerifyDigest checks a signature produced by SignDigest.
func (r *Registry) VerifyDigest(d canon.Digest, sig Signature) error {
	return r.Verify(digestMessage(d), sig)
}

package main

import (
	"crypto/ed25519"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sigcrypto"
)

// TestKeyFileRewriteIsAtomic: a peer scanning the key directory while
// a host rewrites its key file reads a whole key, the old one or the
// new, and never a short file.
func TestKeyFileRewriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	book := map[string]string{"shop": "127.0.0.1:1"}
	keys := make([]ed25519.PublicKey, 2)
	for i := range keys {
		kp, err := sigcrypto.GenerateKeyPair("shop")
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp.Public()
	}
	if _, err := writeKeyFile(dir, "shop", keys[0]); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	writeErr := make(chan error, 1)
	go func() {
		defer done.Store(true)
		for i := 0; i < 500; i++ {
			if _, err := writeKeyFile(dir, "shop", keys[i%2]); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()
	reads := 0
	for !done.Load() {
		reg := sigcrypto.NewRegistry()
		if err := loadPeerKeys(reg, dir, book); err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		reads++
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "shop.pub" {
			t.Errorf("left behind: %s", e.Name())
		}
	}
	data, err := os.ReadFile(dir + "/shop.pub")
	if err != nil || strings.TrimSpace(string(data)) == "" {
		t.Fatalf("final key file %q: %v", data, err)
	}
	t.Logf("%d directory scans during 500 rewrites", reads)
}

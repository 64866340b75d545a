package campaign

import (
	"sync"
	"time"
)

// Virtual time. A campaign's suspicion arithmetic — ledger decay
// half-lives, gossip extract timestamps — must be a function of the
// schedule, not of how fast the host machine happens to execute it, or
// the same seed would score differently between runs and machines. The
// whole fleet shares one Clock; the step loop advances it by
// DefaultStepDuration once per step, and nothing else moves it.

// campaignEpoch anchors every campaign at the same instant, so ledger
// timestamps (and thus fingerprints) are machine-independent.
var campaignEpoch = time.Unix(1_700_000_000, 0)

// Clock is a manually advanced clock shared by every node of a
// campaign fleet.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts a clock at the campaign epoch.
func NewClock() *Clock { return &Clock{t: campaignEpoch} }

// Now returns the current virtual time; it has the time.Now signature
// so it plugs into policy.LedgerConfig.Now and protection's
// Options.Clock directly.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward; the step loop calls it exactly once
// per step.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

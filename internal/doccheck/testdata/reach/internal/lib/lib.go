// Package lib holds the fixture's declarations.
package lib

import "time"

// Config is read by main; only the test sets OnlyTestsSet, and only
// New's defaults set Retries and Clock.
type Config struct {
	Name         string
	OnlyTestsSet bool
	Retries      int
	Clock        func() time.Time
}

// Options is read by main; only the test sets Verbose.
type Options struct{ Verbose bool }

// DefaultRetries is the Retries every Config gets.
const DefaultRetries = 3

// New fills in cfg's defaults.
func New(cfg Config) Config {
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// Log keeps the first error it is handed: a computed value under a
// zero check is a write.
type Log struct{ first error }

// Note records err unless an error came first.
func (l *Log) Note(err error) {
	if l.first == nil {
		l.first = err
	}
}

// First returns the first error noted.
func (l *Log) First() error { return l.first }

// Shape is called through by main.
type Shape interface{ Area() int }

// Square is a Shape; only the test sets Label.
type Square struct {
	Side  int
	Label string
}

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

type checkError struct{ name string }

// Error is reached only through error.
func (e *checkError) Error() string { return "unnamed config " + e.name }

// Check refuses a Config without a name.
func Check(c Config) error {
	if c.Name == "" {
		return &checkError{name: c.Name}
	}
	return nil
}

// OnlyTestsCall is called by the test alone.
func OnlyTestsCall() int { return 42 }

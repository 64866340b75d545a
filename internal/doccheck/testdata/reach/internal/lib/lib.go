// Package lib holds the fixture's declarations.
package lib

// Config is read by main; only the test sets OnlyTestsSet.
type Config struct {
	Name         string
	OnlyTestsSet bool
}

// Shape is called through by main.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ Side int }

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

package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
)

// Manifest is a deployment written down once: every agenthost and
// agentctl reads the same file, so who is trusted, where a host listens
// and who aggregates the reputation exchange each have one home. It is
// plain text, one host per line, fields separated by white space and #
// starting a comment:
//
//	name address [trusted] [aggregator]
//
// It is not signed: it is read from the operator's own disk, exactly as
// command-line flags are.
type Manifest struct {
	Entries []Entry // in file order
}

// Entry is one host of a Manifest. Trusted marks a host the agent
// owners trust (§5.1), Aggregator one that fronts the reputation
// exchange's federation.
type Entry struct {
	Name, Addr          string
	Trusted, Aggregator bool
}

// ReadManifest reads and parses the manifest file at path.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: manifest: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ParseManifest parses a manifest strictly: a duplicate name, an
// address that is not host:port, an unknown or repeated role word and
// an extra field are each refused, naming the line.
func ParseManifest(data []byte) (*Manifest, error) {
	m := &Manifest{}
	seen := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		e, err := parseEntry(fields)
		if err == nil && seen[e.Name] {
			err = fmt.Errorf("host %q listed twice", e.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("manifest line %d: %w", line, err)
		}
		seen[e.Name] = true
		m.Entries = append(m.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return m, nil
}

func parseEntry(fields []string) (Entry, error) {
	if len(fields) < 2 {
		return Entry{}, errors.New("want: name address [trusted] [aggregator]")
	}
	if len(fields) > 4 {
		return Entry{}, fmt.Errorf("extra field %q", fields[4])
	}
	e := Entry{Name: fields[0], Addr: fields[1]}
	_, port, err := net.SplitHostPort(e.Addr)
	if err == nil {
		_, err = strconv.ParseUint(port, 10, 16)
	}
	if err != nil {
		return Entry{}, fmt.Errorf("host %q: address %q is not host:port", e.Name, e.Addr)
	}
	for _, role := range fields[2:] {
		switch {
		case role == "trusted" && !e.Trusted:
			e.Trusted = true
		case role == "aggregator" && !e.Aggregator:
			e.Aggregator = true
		default:
			return Entry{}, fmt.Errorf("host %q: unknown or repeated role %q", e.Name, role)
		}
	}
	return e, nil
}

// Lookup returns the entry of the host called name.
func (m *Manifest) Lookup(name string) (Entry, bool) {
	for _, e := range m.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Book is the deployment's address book, name to address.
func (m *Manifest) Book() map[string]string {
	book := make(map[string]string, len(m.Entries))
	for _, e := range m.Entries {
		book[e.Name] = e.Addr
	}
	return book
}

// Aggregators lists the aggregator hosts in file order; nil when the
// exchange is flat.
func (m *Manifest) Aggregators() []string {
	var out []string
	for _, e := range m.Entries {
		if e.Aggregator {
			out = append(out, e.Name)
		}
	}
	return out
}

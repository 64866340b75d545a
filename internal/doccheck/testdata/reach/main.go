// Command reach is the reachability gate's fixture: the production
// root of a tree with one finding of each reported shape.
package main

import (
	"fmt"

	"reach/internal/lib"
)

func main() {
	cfg := lib.New(lib.Config{Name: "demo"})
	if cfg.OnlyTestsSet {
		fmt.Println("set")
	}
	var opts lib.Options
	if opts.Verbose {
		fmt.Println("verbose")
	}
	sq := lib.Square{Side: 2}
	var s lib.Shape = sq
	var log lib.Log
	log.Note(lib.Check(cfg))
	fmt.Println(s.Area(), sq.Label, cfg.Retries, cfg.Clock(), log.First())
}

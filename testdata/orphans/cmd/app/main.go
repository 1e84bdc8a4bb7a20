// Command app is the root of the fixture: it reaches store.Open,
// store.Client.Get and ServerOptions.Verbose.
package main

import (
	"fmt"

	"symbiosys/testdata/orphans/internal/store"
)

func main() {
	var opts store.ServerOptions
	opts.Verbose = true
	s := store.NewServer(opts, store.Open(store.Config{Shards: 4}))
	fmt.Println(store.NewClient(s).Get())
}

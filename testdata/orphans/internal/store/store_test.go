package store

import "testing"

func TestOpen(t *testing.T) {
	c := NewClient(NewServer(ServerOptions{}, Open(Config{Verbose: true})))
	if got := c.Open(); got != "opened" {
		t.Fatal(got)
	}
}

package ior

import (
	"testing"

	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
	"symbiosys/internal/services/mobject"
)

func newSetup(t *testing.T) (*margo.Instance, *margo.Instance) {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n0", Name: "mobject", Fabric: f,
		HandlerStreams: 8, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mobject.RegisterProviderNode(srv, "map"); err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "n0", Name: "ior0", Fabric: f, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); srv.Shutdown() })
	return srv, cli
}

func TestWriteAndReadPhases(t *testing.T) {
	srv, cli := newSetup(t)
	res, err := Run(cli, Config{
		Target: srv.Addr(), Rank: 3, Segments: 5, TransferSize: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectsWritten != 5 || res.ObjectsRead != 5 {
		t.Fatalf("result = %+v", res)
	}
	if res.BytesMoved != 2*5*2048 {
		t.Fatalf("bytes = %d", res.BytesMoved)
	}
}

func TestDeadTargetFails(t *testing.T) {
	_, cli := newSetup(t)
	if _, err := Run(cli, Config{
		Target: "nowhere/gone", Rank: 0, Segments: 1, TransferSize: 64,
	}); err == nil {
		t.Fatal("ior against dead target succeeded")
	}
}

// Composed service example: a "photo store" service composes the BAKE
// (blob) and SDSKV (metadata) microservices behind its own provider,
// exactly the composition pattern of Mobject (paper Figure 4). The
// distributed callpath profile then shows multi-hop breadcrumbs like
//
//	photo_put_rpc => bake_write_rpc
//	photo_put_rpc => sdskv_put_rpc
//
// demonstrating how SYMBIOSYS attributes time across microservice
// boundaries without any per-service instrumentation.
//
// Run with:
//
//	go run ./examples/composed
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/services/bake"
	"symbiosys/internal/services/sdskv"
)

type photoArgs struct {
	Name string
	Data []byte
}

func (a *photoArgs) Proc(p *mercury.Proc) error {
	p.String(&a.Name)
	p.Bytes(&a.Data)
	return p.Err()
}

// photoService composes BAKE and SDSKV providers colocated on its node.
type photoService struct {
	inst  *margo.Instance
	bakeC *bake.Client
	kvC   *sdskv.Client
	dbID  uint32
}

func (s *photoService) handlePut(ctx *margo.Context) {
	var in photoArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("photo: %v", err)
		return
	}
	self := s.inst.Addr()
	// Blob into BAKE (three nested RPCs)...
	rid, err := s.bakeC.Create(ctx.Self, self, uint64(len(in.Data)))
	if err != nil {
		ctx.RespondError("photo: create: %v", err)
		return
	}
	if err := s.bakeC.Write(ctx.Self, self, rid, 0, in.Data); err != nil {
		ctx.RespondError("photo: write: %v", err)
		return
	}
	if err := s.bakeC.Persist(ctx.Self, self, rid); err != nil {
		ctx.RespondError("photo: persist: %v", err)
		return
	}
	// ...and metadata into SDSKV (one nested RPC).
	meta := fmt.Sprintf("rid=%d;bytes=%d", rid, len(in.Data))
	if err := s.kvC.Put(ctx.Self, self, s.dbID, []byte(in.Name), []byte(meta)); err != nil {
		ctx.RespondError("photo: meta: %v", err)
		return
	}
	ctx.Respond(mercury.Void{})
}

func main() {
	fabric := na.NewFabric(na.DefaultConfig())
	server, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "storage", Name: "photod",
		Fabric: fabric, HandlerStreams: 8, Stage: core.StageFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Shutdown()

	// Compose: BAKE + SDSKV providers plus the photo provider, all on
	// one process, talking through real RPCs.
	svc := &photoService{inst: server}
	if _, err := bake.RegisterProvider(server); err != nil {
		log.Fatal(err)
	}
	kvP, err := sdskv.RegisterProvider(server, sdskv.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if svc.bakeC, err = bake.NewClient(server); err != nil {
		log.Fatal(err)
	}
	if svc.kvC, err = sdskv.NewClient(server); err != nil {
		log.Fatal(err)
	}
	if svc.dbID, err = kvP.OpenLocal("photo-meta", "map"); err != nil {
		log.Fatal(err)
	}
	if err := server.Register("photo_put_rpc", svc.handlePut); err != nil {
		log.Fatal(err)
	}

	client, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "login", Name: "cli",
		Fabric: fabric, Stage: core.StageFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Shutdown()
	client.RegisterClient("photo_put_rpc")

	u := client.Run("uploader", func(self *abt.ULT) {
		for i := 0; i < 8; i++ {
			img := make([]byte, 4096)
			in := photoArgs{Name: fmt.Sprintf("img-%03d.raw", i), Data: img}
			if err := client.Forward(self, server.Addr(), "photo_put_rpc", &in, nil); err != nil {
				log.Printf("upload: %v", err)
				return
			}
		}
	})
	u.Join(nil)
	server.WaitIdle(2 * time.Second)
	time.Sleep(20 * time.Millisecond)

	// The server's origin-side profile holds the multi-hop breadcrumbs:
	// every nested call it made on behalf of photo_put_rpc.
	fmt.Println("composed-service callpaths observed on the provider node:")
	names := server.Profiler().Names()
	type row struct {
		name string
		s    core.CallStats
	}
	var rows []row
	for key, stats := range server.Profiler().OriginStats() {
		rows = append(rows, row{names.Format(key.BC), stats})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s.CumNanos > rows[j].s.CumNanos })
	for _, r := range rows {
		fmt.Printf("  %-42s calls %2d  cum %v\n",
			r.name, r.s.Count, time.Duration(r.s.CumNanos).Round(time.Microsecond))
	}
}

package mercury

import "symbiosys/internal/mercury/pvar"

// PVAR names exported by every Mercury instance (paper Table II plus
// supporting counters). Tools address PVARs by these names.
const (
	PVarNumPostedHandles     = "num_posted_handles"
	PVarCompletionQueueSize  = "completion_queue_size"
	PVarNumOFIEventsRead     = "num_ofi_events_read"
	PVarNumRPCsInvoked       = "num_rpcs_invoked"
	PVarNumRPCsHandled       = "num_rpcs_handled"
	PVarNumResponsesSent     = "num_responses_sent"
	PVarNumEagerOverflows    = "num_eager_overflows"
	PVarNumStaleResponses    = "num_stale_responses"
	PVarNumSendErrors        = "num_send_errors"
	PVarBulkBytesTransferred = "bulk_bytes_transferred"
	PVarPostedHandlesHWM     = "posted_handles_highwatermark"
	PVarCompletionQueueHWM   = "completion_queue_highwatermark"
	PVarInternalRDMATime     = "internal_rdma_transfer_time"
	PVarNumBatchesForwarded  = "num_batches_forwarded"
	PVarNumBatchedOpsFwd     = "num_batched_ops_forwarded"
	PVarNumBatchesHandled    = "num_batches_handled"
	PVarNumBatchedOpsHandled = "num_batched_ops_handled"
	PVarInputSerTime         = "input_serialization_time"
	PVarInputDeserTime       = "input_deserialization_time"
	PVarOutputSerTime        = "output_serialization_time"
	PVarOutputDeserTime      = "output_deserialization_time"
	PVarOriginCBTime         = "origin_completion_callback_time"

	// Delivery lateness of the simulated fabric toward this instance's
	// endpoint (na.Endpoint.Lateness).
	PVarNumDeliveries         = "num_fabric_deliveries"
	PVarDeliveryLatenessNanos = "fabric_delivery_lateness_ns"
	PVarNumDeliveriesLate10us = "num_fabric_deliveries_late_10us"
	PVarNumDeliveriesLate50us = "num_fabric_deliveries_late_50us"
)

// registerPVars exports the instance's performance variables through the
// PVAR interface (paper §IV-B). Handle-bound variables read their value
// off the *Handle supplied at sampling time.
func (c *Class) registerPVars() {
	r := c.pvars

	r.RegisterGlobal(PVarNumPostedHandles,
		"Number of currently posted RPC handles",
		pvar.ClassLevel, func() uint64 { return uint64(c.postedLevel.Load()) })
	r.RegisterGlobal(PVarCompletionQueueSize,
		"Number of events in Mercury's completion queue",
		pvar.ClassState, func() uint64 { return uint64(c.cqLevel.Load()) })
	r.RegisterGlobal(PVarNumOFIEventsRead,
		"Number of OFI completion events last read",
		pvar.ClassLevel, func() uint64 { return uint64(c.ofiRead.Load()) })
	r.RegisterGlobal(PVarNumRPCsInvoked,
		"Number of RPCs invoked by instance",
		pvar.ClassCounter, c.rpcsInvoked.Load)
	r.RegisterGlobal(PVarNumRPCsHandled,
		"Number of RPC requests handled by instance",
		pvar.ClassCounter, c.rpcsHandled.Load)
	r.RegisterGlobal(PVarNumResponsesSent,
		"Number of RPC responses sent by instance",
		pvar.ClassCounter, c.responsesSent.Load)
	r.RegisterGlobal(PVarNumEagerOverflows,
		"Number of requests whose metadata overflowed the eager buffer",
		pvar.ClassCounter, c.eagerOverflows.Load)
	r.RegisterGlobal(PVarNumStaleResponses,
		"Number of responses that matched no posted handle",
		pvar.ClassCounter, c.staleResponses.Load)
	r.RegisterGlobal(PVarNumSendErrors,
		"Number of asynchronous network failures observed",
		pvar.ClassCounter, c.sendErrors.Load)
	r.RegisterGlobal(PVarNumBatchesForwarded,
		"Number of vectored (batched) forwards sent by instance",
		pvar.ClassCounter, c.batchesForwarded.Load)
	r.RegisterGlobal(PVarNumBatchedOpsFwd,
		"Number of sub-requests carried by vectored forwards",
		pvar.ClassCounter, c.batchedOpsForwarded.Load)
	r.RegisterGlobal(PVarNumBatchesHandled,
		"Number of vectored requests handled by instance",
		pvar.ClassCounter, c.batchesHandled.Load)
	r.RegisterGlobal(PVarNumBatchedOpsHandled,
		"Number of sub-requests fanned out from vectored requests",
		pvar.ClassCounter, c.batchedOpsHandled.Load)
	r.RegisterGlobal(PVarBulkBytesTransferred,
		"Bytes moved through the bulk interface",
		pvar.ClassCounter, c.bulkBytes.Load)
	r.RegisterGlobal(PVarPostedHandlesHWM,
		"Highest number of simultaneously posted handles",
		pvar.ClassHighWatermark, func() uint64 { return uint64(c.postedLevel.HighWatermark()) })
	r.RegisterGlobal(PVarCompletionQueueHWM,
		"Highest completion queue length observed",
		pvar.ClassHighWatermark, func() uint64 { return uint64(c.cqLevel.HighWatermark()) })

	r.RegisterGlobal(PVarNumDeliveries,
		"Number of fabric deliveries (messages and RDMA) toward this instance",
		pvar.ClassCounter, func() uint64 { return c.ep.Lateness().Count })
	r.RegisterGlobal(PVarDeliveryLatenessNanos,
		"Nanoseconds those deliveries came after their modeled arrival time, summed",
		pvar.ClassCounter, func() uint64 { return c.ep.Lateness().SumNanos })
	r.RegisterGlobal(PVarNumDeliveriesLate10us,
		"Number of fabric deliveries more than 10 us late",
		pvar.ClassCounter, func() uint64 { return c.ep.Lateness().Over10us })
	r.RegisterGlobal(PVarNumDeliveriesLate50us,
		"Number of fabric deliveries more than 50 us late",
		pvar.ClassCounter, func() uint64 { return c.ep.Lateness().Over50us })

	handleTimer := func(pick func(*Handle) *pvar.Timer) pvar.HandleReader {
		return func(obj any) (uint64, bool) {
			h, ok := obj.(*Handle)
			if !ok {
				return 0, false
			}
			return pick(h).Nanos(), true
		}
	}
	r.RegisterHandle(PVarInternalRDMATime,
		"Time taken to transfer additional RPC metadata through RDMA",
		pvar.ClassTimer, handleTimer(func(h *Handle) *pvar.Timer { return &h.RDMATime }))
	r.RegisterHandle(PVarInputSerTime,
		"Time taken to serialize input on origin",
		pvar.ClassTimer, handleTimer(func(h *Handle) *pvar.Timer { return &h.InputSerTime }))
	r.RegisterHandle(PVarInputDeserTime,
		"Time taken to de-serialize input on target",
		pvar.ClassTimer, handleTimer(func(h *Handle) *pvar.Timer { return &h.InputDeserTime }))
	r.RegisterHandle(PVarOutputSerTime,
		"Time taken to serialize output on target",
		pvar.ClassTimer, handleTimer(func(h *Handle) *pvar.Timer { return &h.OutputSerTime }))
	r.RegisterHandle(PVarOutputDeserTime,
		"Time taken to de-serialize output on origin",
		pvar.ClassTimer, handleTimer(func(h *Handle) *pvar.Timer { return &h.OutputDeserTime }))
	r.RegisterHandle(PVarOriginCBTime,
		"Delay between the arrival of RPC response and invocation of completion callback",
		pvar.ClassTimer, handleTimer(func(h *Handle) *pvar.Timer { return &h.OriginCBTime }))
}

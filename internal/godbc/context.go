package godbc

// Context plumbing for the classic (non-multiplexed) client types. The
// resident analysis service runs many concurrent analyses with per-request
// deadlines, so every blocking point of the driver must observe a
// context.Context:
//
//   - pool checkout (Pool.GetCtx) — a request canceled while waiting for a
//     connection leaves the queue instead of executing doomed work;
//   - the wire round trip — a plain Conn has no way to interleave a cancel
//     message into its strict request/response turn, so cancellation snaps
//     the connection's deadline: the round trip fails, the connection is
//     marked broken, and the pool discards it (the server notices the close
//     and cancels the request's server-side work). MuxConn (mux.go) cancels
//     without sacrificing the connection;
//   - the profiled vendor delays — wire.DelayCtx returns early on cancel.
//
// Every operation has one implementation, its ...Context method; the plain
// method delegates with context.Background(). That path costs nothing extra:
// roundTripCtx short-circuits a context that can never be canceled, and
// wire.Delay is DelayCtx on the background context.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sqldb/wire"
)

// roundTripCtx performs a round trip that observes ctx. Cancellation mid
// round trip leaves the connection's protocol state undefined, so the
// connection is sacrificed (broken, for a pool to discard) — the price of
// cancelable requests on a one-at-a-time protocol.
func (c *Conn) roundTripCtx(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if ctx.Done() == nil {
		return c.roundTrip(req)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() {
		// Snap the in-flight read/write; roundTrip fails and marks broken.
		c.nc.SetDeadline(time.Unix(1, 0))
	})
	resp, err := c.roundTrip(req)
	if !stop() {
		// The watchdog ran. If the round trip still completed, clear the
		// poisoned deadline so the error (if any) is the only casualty.
		c.nc.SetDeadline(time.Time{})
		if err != nil {
			return nil, fmt.Errorf("godbc: round trip canceled: %w", ctx.Err())
		}
	}
	return resp, err
}

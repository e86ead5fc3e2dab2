// Package ctxflow exercises the cancellation-flow rule: parallel
// fan-outs must be reachable by a caller-supplied context, and fresh
// root contexts are banned outside main/run of a command.
package ctxflow

import (
	"context"

	"cosmicdance/internal/parallel"
)

// fanOutCtx is the sanctioned shape: ctx comes in as a parameter and
// flows into the fan-out.
func fanOutCtx(ctx context.Context, n int) error {
	return parallel.ForEach(ctx, parallel.Workers(0), n, func(i int) error { return nil })
}

// runner hides its context in a field: the fan-out below can never be
// cancelled by the caller of fanOut, so the method is flagged.
type runner struct {
	ctx context.Context
}

func (r runner) fanOut(n int) error {
	return parallel.ForEach(r.ctx, 2, n, func(i int) error { return nil }) // want `\(runner\)\.fanOut invokes internal/parallel but takes no context\.Context parameter`
}

// freshRoot severs the chain: a Background here can never be cancelled
// from outside.
func freshRoot() context.Context {
	return context.Background() // want `context\.Background severs cancellation`
}

func todoRoot() context.Context {
	return context.TODO() // want `context\.TODO severs cancellation`
}

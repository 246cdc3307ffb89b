package cancel

import (
	"context"
	"errors"
	"testing"
)

func TestZeroCheckerNeverCancels(t *testing.T) {
	var c Checker
	for i := 0; i < 3*DefaultStride; i++ {
		if err := c.Tick(); err != nil {
			t.Fatalf("zero Checker ticked non-nil: %v", err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("zero Checker Err non-nil: %v", err)
	}
}

func TestNilCheckerNeverCancels(t *testing.T) {
	var c *Checker
	for i := 0; i < 3*DefaultStride; i++ {
		if err := c.Tick(); err != nil {
			t.Fatalf("nil Checker ticked non-nil: %v", err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("nil Checker Err non-nil: %v", err)
	}
}

func TestNilAndBackgroundContexts(t *testing.T) {
	for name, c := range map[string]Checker{
		"nil":        New(nil, 4),
		"background": New(context.Background(), 4),
	} {
		for i := 0; i < 16; i++ {
			if err := c.Tick(); err != nil {
				t.Fatalf("%s context ticked non-nil: %v", name, err)
			}
		}
	}
}

// Tick must report cancellation within one stride of the cancel, and
// never before a stride boundary.
func TestTickStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const stride = 8
	c := New(ctx, stride)
	for i := 0; i < stride-1; i++ {
		if err := c.Tick(); err != nil {
			t.Fatalf("tick %d non-nil before cancellation: %v", i, err)
		}
	}
	cancel()
	// ticks stride-1..2*stride-2: exactly one hits the boundary
	var got error
	for i := 0; i < stride; i++ {
		if err := c.Tick(); err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("no cancellation within one stride: %v", got)
	}
}

func TestErrPollsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, 1<<20)
	if err := c.Err(); err != nil {
		t.Fatalf("Err before cancellation: %v", err)
	}
	cancel()
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancellation = %v, want context.Canceled", err)
	}
}

func TestDefaultStrideApplied(t *testing.T) {
	c := New(context.Background(), 0)
	if c.stride != DefaultStride {
		t.Errorf("stride = %d, want DefaultStride %d", c.stride, DefaultStride)
	}
	if c2 := New(context.Background(), -5); c2.stride != DefaultStride {
		t.Errorf("negative stride = %d, want DefaultStride", c2.stride)
	}
}

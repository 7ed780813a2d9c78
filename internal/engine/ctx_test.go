package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
)

func comBytes(c Community) string {
	return fmt.Sprintf("found=%t level=%d fromIndex=%t nodes=%v", c.Found, c.Level, c.FromIndex, c.Nodes)
}

// TestQueryCtxMatchesQueryWhenUncancelled locks that polling consumes no
// randomness: a query under a live cancellable context answers exactly as
// one under context.Background.
func TestQueryCtxMatchesQueryWhenUncancelled(t *testing.T) {
	g, q := attrGraph(t, 3)
	eng := buildEngine(t, g, Params{K: 3, Theta: 4, Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, v := range []Variant{VariantCODL, VariantCODU, VariantCODR} {
		want, err := run(eng, v, q, 0, graph.NewRand(7))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Execute(ctx, eng.Compile(v, q, 0), graph.NewRand(7))
		if err != nil {
			t.Fatal(err)
		}
		if comBytes(got) != comBytes(want) {
			t.Errorf("%v under a live context differs:\n got %s\nwant %s", v, comBytes(got), comBytes(want))
		}
	}
}

func TestQueryCtxCancellationIsFastAndTyped(t *testing.T) {
	g, q := attrGraph(t, 3)
	p := Params{K: 3, Theta: 10, Seed: 5}
	eng := buildEngine(t, g, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := eng.Execute(ctx, eng.Compile(VariantCODL, q, 0), graph.NewRand(7))
	if err == nil {
		t.Fatal("canceled query returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("canceled query took %v", elapsed)
	}

	if _, err := eng.Execute(ctx, eng.Compile(VariantCODR, q, 0), graph.NewRand(7)); !errors.Is(err, context.Canceled) {
		t.Errorf("CODR canceled error = %v", err)
	}
	if _, err := eng.Execute(ctx, eng.Compile(VariantCODU, q, 0), graph.NewRand(7)); !errors.Is(err, context.Canceled) {
		t.Errorf("CODU canceled error = %v", err)
	}
	var ce *influence.CanceledError
	if _, err := eng.Execute(ctx, eng.Compile(VariantCODU, q, 0), graph.NewRand(7)); !errors.As(err, &ce) {
		t.Errorf("CODU canceled error %T carries no progress", err)
	} else if ce.Total == 0 {
		t.Error("CanceledError.Total missing")
	}
}

func TestNewCODLCtxCancellation(t *testing.T) {
	g, _ := attrGraph(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Params{Theta: 4}, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled offline build error = %v", err)
	}
}

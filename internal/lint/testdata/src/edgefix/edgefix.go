// Package edgefix is a tangolint fixture for the call graph: each
// exported function resolves its calls through exactly one edge kind
// (call, iface, funcval, ref), and TestCallGraphEdgeKinds pins every
// edge the fixture yields.
package edgefix

// Shape has two project implementations, one per receiver kind.
type Shape interface{ Area() float64 }

type Square struct{ s float64 }

func (q Square) Area() float64 { return q.s * q.s }

type Circle struct{ r float64 }

func (c *Circle) Area() float64 { return 3 * c.r * c.r }

func helper() int { return 1 }

func double(x int) int { return 2 * x }

func triple(x int) int { return 3 * x }

// Direct makes a static call: one call edge.
func Direct() int { return helper() }

// Measure calls a concrete method: one call edge, no ref.
func Measure(c *Circle) float64 { return c.Area() }

// Dispatch calls through the interface: an iface edge to every
// implementing method.
func Dispatch(s Shape) float64 { return s.Area() }

// Pick takes two functions' addresses: ref edges, no calls.
func Pick(big bool) func(int) int {
	if big {
		return triple
	}
	return double
}

// Bound takes a bound method value: a ref edge to the method.
func Bound(q Square) func() float64 { return q.Area }

// Apply calls through a func value: funcval edges to every
// address-taken function of the same signature.
func Apply(f func(int) int, x int) int { return f(x) }

// Package main is the layercheck golden for the example client: like
// the load client it talks to the serving stack from outside and must
// not link the engine.
package main

import (
	_ "internal/obs"
	_ "internal/serve" // want `examples/serve must not import internal/serve: the example client is model-free`
)

func main() {}

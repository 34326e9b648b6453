// Package main is the layercheck golden for the model-free client
// rule: the load client may reach the shared internal packages it
// measures through, but never the engine or a replica's in-process
// API.
package main

import (
	_ "internal/capsnet" // want `cmd/capsnet-load must not import internal/capsnet: the load client is model-free and measures the serving stack from outside`
	_ "internal/fp32"    // want `cmd/capsnet-load must not import internal/fp32: the load client is model-free`
	_ "internal/loadgen"
	_ "internal/obs"
	_ "internal/serve"  // want `cmd/capsnet-load must not import internal/serve: the load client is model-free`
	_ "internal/tensor" // want `cmd/capsnet-load must not import internal/tensor: the load client is model-free`
)

func main() {}

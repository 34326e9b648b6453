// Serve is a one-shot client for the serving stack: it reads the
// model geometry from /v1/model, classifies one seeded synthetic image
// per class, and prints the predicted class, its probability and the
// micro-batch each request rode in. It talks to one capsnet-serve
// replica or to the capsnet-router tier alike:
//
//	go run ./cmd/capsnet-serve -demo-classes 5 &
//	go run ./examples/serve -addr http://localhost:8080
//
// To put load on either tier, use cmd/capsnet-load: it fires on an
// open-loop schedule, so a stalling server shows up in the latency.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of a capsnet-serve replica or a capsnet-router")
	flag.Parse()

	var info serve.ModelInfo
	if err := call(*addr+"/v1/model", nil, &info); err != nil {
		fmt.Fprintf(os.Stderr, "fetching model info: %v (is capsnet-serve running?)\n", err)
		os.Exit(1)
	}
	fmt.Printf("model: %dx%dx%d → %d classes, %s routing × %d iterations\n",
		info.Channels, info.Height, info.Width, info.Classes, info.RoutingMode, info.RoutingIterations)

	gen := dataset.NewGenerator(dataset.Spec{
		Name: "client", Classes: info.Classes,
		Channels: info.Channels, H: info.Height, W: info.Width,
		Noise: 0.05, Seed: 42,
	})
	img := make([]float32, info.Channels*info.Height*info.Width)
	for c := 0; c < info.Classes; c++ {
		gen.Sample(img, c)
		body, err := json.Marshal(serve.ClassifyRequest{Image: img})
		if err != nil {
			panic(err)
		}
		var cr serve.ClassifyResponse
		if err := call(*addr+"/v1/classify", body, &cr); err != nil {
			fmt.Fprintf(os.Stderr, "classifying an image of class %d: %v\n", c, err)
			os.Exit(1)
		}
		top := float32(0)
		for _, p := range cr.Probs {
			top = max(top, p)
		}
		fmt.Printf("  image of class %d: predicted %d (p=%.3f, batch %d)\n", c, cr.Class, top, cr.Batch)
	}
}

// call GETs url, or POSTs body to it when body is non-nil, and
// decodes a 200 reply into dst.
func call(url string, body []byte, dst any) error {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

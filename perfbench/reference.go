package main

// reference holds each workload's output digest for the default seed: the
// sha256 of the simulated results of repetition 0 (see each workload's run
// function for what the digest covers). A change that alters any simulated
// output changes the digest, and the run reports the repetition as failed.
var reference = map[string]string{
	"steady":    "45539f616901a36efa508f234335d8653a57782acfb641b3a5f88499397581b1",
	"provision": "b4a9dbe2f17253302dd2d6f72bee1fdfe9ce74eb0dfb5df5082c7e3c2a96fa00",
	"observed":  "14d5abd5f162db3fe31e5c45549c736191aa6262777427657fc9a6674de372d6",
	"fleet":     "a078d26f0d656be059fec2224726f4924c790233dd4f12e7f8da81dc3987a288",
}

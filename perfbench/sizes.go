package main

// imagePx is the side of every generated image: 48 px gives the
// default pyramid 29 descriptors per image.
const imagePx = 48

// sizes fixes each workload's input sizes and offered rates. They are
// constants of the benchmark, not of the program: a faster program meets
// the same rates with lower latency.
type sizes struct {
	setups int // set-ups per run; setup_s is their median
	k      int // top-k of every search

	// search: the preloaded corpus and the open-loop query rate.
	searchFlickr  int
	searchHoliday int
	searchQueries int // query pool per kind
	searchRate    float64

	// fleet: tenants, objects per tenant, the memory budget that holds
	// only a fraction of them, and the open-loop rate. The traffic's skew
	// and mix are fixed in fleet.go.
	fleetRepos   int
	fleetObjects int
	fleetBudget  int64
	fleetRate    float64
}

func defaultSizes() sizes {
	return sizes{
		setups:        5,
		k:             10,
		searchFlickr:  120,
		searchHoliday: 180,
		searchQueries: 120,
		searchRate:    150,
		fleetRepos:    250,
		fleetObjects:  16,
		fleetBudget:   4 << 20,
		fleetRate:     250,
	}
}

// tinySizes keeps the self-test quick.
func tinySizes() sizes {
	return sizes{
		setups:        2,
		k:             5,
		searchFlickr:  30,
		searchHoliday: 6,
		searchQueries: 10,
		searchRate:    50,
		fleetRepos:    12,
		fleetObjects:  4,
		fleetBudget:   300 << 10,
		fleetRate:     100,
	}
}

// describe lists the sizes that apply to a workload, for the env record.
func (s sizes) describe(workload string) map[string]interface{} {
	m := map[string]interface{}{"setups": s.setups, "k": s.k, "clients": workers}
	switch workload {
	case "search":
		m["objects"] = s.searchFlickr + 2*s.searchHoliday
		m["holiday_groups"] = s.searchHoliday
		m["queries_per_kind"] = s.searchQueries
		m["image_px"] = imagePx
		m["offered_rate_per_s"] = s.searchRate
		m["sync"] = "always"
		m["followers"] = 1
	case "fleet":
		m["repositories"] = s.fleetRepos
		m["objects_per_repository"] = s.fleetObjects
		m["memory_budget_bytes"] = s.fleetBudget
		m["offered_rate_per_s"] = s.fleetRate
		m["hot_set"] = fleetHotSet(s.fleetRepos)
		m["add_share"] = fleetAddShare
		m["sync"] = "always"
	}
	return m
}

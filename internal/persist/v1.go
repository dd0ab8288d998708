package persist

import (
	"encoding/json"
	"fmt"
)

// Format version 1: the same envelope, whose payload stores every library
// entry's training data inline, with no model table. The types below are
// version 2's, with the two library lists swapped back to inline models
// (the outer field shadows the embedded one of the same JSON name).

type v1Model struct {
	RateRPS float64 `json:"rate_rps"`
	ModelState
}

type v1Job struct {
	JobState
	Library []v1Model `json:"library,omitempty"`
}

type v1Shared struct {
	SharedLibraryState
	Models []v1Model `json:"models"`
}

type v1Fleet struct {
	FleetState
	Jobs   []v1Job    `json:"jobs"`
	Shared []v1Shared `json:"shared_libraries"`
}

// decodeV1 is the one translation of version 1: it decodes a verified
// version 1 payload and gives every library entry its own table slot —
// so a version 1 file refits each entry separately, exactly as version 1
// builds restored it.
func decodeV1(payload []byte) (*FleetState, error) {
	var v1 v1Fleet
	if err := json.Unmarshal(payload, &v1); err != nil {
		return nil, fmt.Errorf("persist: decode version 1 payload: %w", err)
	}
	st := v1.FleetState
	refs := func(models []v1Model) []ModelRef {
		if models == nil {
			return nil
		}
		out := make([]ModelRef, len(models))
		for i, m := range models {
			out[i] = ModelRef{RateRPS: m.RateRPS, Model: len(st.Models)}
			st.Models = append(st.Models, m.ModelState)
		}
		return out
	}
	if v1.Jobs != nil {
		st.Jobs = make([]JobState, len(v1.Jobs))
		for i := range v1.Jobs {
			st.Jobs[i] = v1.Jobs[i].JobState
			st.Jobs[i].Library = refs(v1.Jobs[i].Library)
		}
	}
	if v1.Shared != nil {
		st.Shared = make([]SharedLibraryState, len(v1.Shared))
		for i := range v1.Shared {
			st.Shared[i] = v1.Shared[i].SharedLibraryState
			st.Shared[i].Models = refs(v1.Shared[i].Models)
		}
	}
	return &st, nil
}

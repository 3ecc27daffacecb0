package wear

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSummaryJSONRoundTrip(t *testing.T) {
	// Populate a summary the way the replay does: through a Dense
	// recorder, so the bucket invariants hold.
	d := NewDense(4)
	for i := 0; i < 10; i++ {
		d.RecordSlotMasks(0, []uint64{0b1001 | uint64(i+1)%2<<1})
	}
	d.RecordSlotMasks(1, []uint64{0b0001})
	s := d.Summary()

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("round trip changed the summary:\n got %+v\nwant %+v", back, s)
	}
	// Trailing zero wear levels are trimmed on the wire.
	if strings.Count(string(data), ",") >= summaryBuckets {
		t.Errorf("wire form looks untrimmed: %s", data)
	}
}

func TestSummaryJSONZeroValue(t *testing.T) {
	var s Summary
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("zero summary round trip = %+v", back)
	}
}

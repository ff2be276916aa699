package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// decodeSeeds are bodies on both sides of the parser's subset: the load
// benchmark's own query and batch bodies, and escapes, nulls, an
// out-of-range float, negative zeros, keys that differ only in case,
// duplicate keys, malformed numbers and trailing bytes.
var decodeSeeds = []string{
	`{"family":"topk","w":[0.31,0.27,0.42],"k":4}`,
	`{"family":"utk","lo":[0.1,0.2],"hi":[0.13,0.23],"k":3}`,
	`{"family":"oru","w":[0.2,0.3,0.5],"k":2,"m":5}`,
	`{"family":"kspr","k":9,"focal":67}`,
	`{"family":"maxrank","k":9,"focal":0}`,
	`{"family":"whynot","w":[0.2,0.3,0.5],"k":2,"focal":3}`,
	`{"queries":[{"family":"topk","w":[0.31,0.27,0.42],"k":4},{"family":"topk","w":[1e-05,0.5,0.49999],"k":9}]}`,
	" \t\r\n{ \"family\" : \"topk\" , \"w\" : [ 0.5 , 0.5 ] , \"k\" : 1 } ",
	`{"queries":[]}`, `{}`, `{"queries":[{}]}`, `[]`, ``, `   `, `{`,
	`{"family":"topk","k":1}`, `{"family":"topk"}`, `{"family":"a\"b"}`,
	`{"family":"top\u006b","k":1}`, `{"fam\u0069ly":"topk"}`, `{"queries":[{"family":"topk","w":[0.5,\u0030]}]}`,
	`{"family":null}`, `{"w":null}`, `{"focal":null}`, `{"queries":null}`, `{"queries":[null]}`,
	`{"w":[1e400]}`, `{"w":[-1e400]}`, `{"w":[1e-400]}`, `{"w":[-0]}`, `{"k":-0}`, `{"focal":-0}`,
	`{"Family":"topk","K":2}`, `{"FOCAL":1}`, `{"queries":[{"family":"topk"}],"Queries":[]}`,
	`{"family":"topk","family":"utk","w":[1,2,3],"w":[4],"k":1,"k":2,"focal":1,"focal":2}`,
	`{"w":[1,2],"w":[]}`, `{"queries":[{"k":1,"w":[1,2]}],"queries":[{"family":"x"}]}`,
	`{"family":"topk"} trailing`, `{"family":"topk"}{`, `{"queries":[]}]]]`, `{"queries":[{"k":1}]}x`,
	`{"k":1.0}`, `{"k":1e2}`, `{"k":9223372036854775807}`, `{"k":9223372036854775808}`, `{"k":-9223372036854775809}`,
	`{"w":[01]}`, `{"w":[1.]}`, `{"w":[.5]}`, `{"w":[1e]}`, `{"w":[+1]}`, `{"w":[1E+2,3e-2,-4.5E7]}`,
	`{"w":[1,]}`, `{"w":[1 2]}`, `{"family":"topk",}`, `{"queries":[{}],"extra":1}`, `{"extra":1}`,
	`{"family":"é"}`, "{\"family\":\"a\tb\"}", `{"family":"<no&such>"}`, `{"k":"1"}`, `{"w":1}`, `{"w":[true]}`,
}

// FuzzQueryDecode: on any body, for both routes, the subset parser either
// declines or returns exactly what encoding/json decodes (reflect.DeepEqual);
// it never accepts a body encoding/json refuses.
func FuzzQueryDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(s)
	}
	var d queryDecoder
	f.Fuzz(func(t *testing.T, body string) {
		for _, batch := range []bool{false, true} {
			got, ok := d.parse([]byte(body), batch)
			if !ok {
				continue
			}
			want, err := decodeWithJSON(body, batch)
			if err != nil {
				t.Fatalf("batch %v: parser accepted %q, encoding/json refuses it: %v", batch, body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %v: %q\nparser        %s\nencoding/json %s", batch, body, dump(got), dump(want))
			}
		}
	})
}

func decodeWithJSON(body string, batch bool) ([]QueryRequest, error) {
	if batch {
		var b batchRequest
		err := json.NewDecoder(strings.NewReader(body)).Decode(&b)
		return b.Queries, err
	}
	var q QueryRequest
	err := json.NewDecoder(strings.NewReader(body)).Decode(&q)
	return []QueryRequest{q}, err
}

// dump renders decoded queries with nil and empty slices told apart.
func dump(qs []QueryRequest) string {
	if qs == nil {
		return "nil"
	}
	var sb strings.Builder
	for _, q := range qs {
		fmt.Fprintf(&sb, "{%q W:%v(nil %v) Lo:%v(nil %v) Hi:%v(nil %v) K:%d M:%d",
			q.Family, q.W, q.W == nil, q.Lo, q.Lo == nil, q.Hi, q.Hi == nil, q.K, q.M)
		if q.Focal != nil {
			fmt.Fprintf(&sb, " focal:%d", *q.Focal)
		}
		sb.WriteString("} ")
	}
	return sb.String()
}

// TestQueryDecodeSubset: the parser takes every query body the load
// benchmark and the batch benchmark send, so their decode never reaches
// encoding/json, and it declines what lies outside its subset even where
// encoding/json accepts it.
func TestQueryDecodeSubset(t *testing.T) {
	var d queryDecoder
	for _, c := range []struct {
		body         string
		batch, takes bool
	}{
		{decodeSeeds[0], false, true},
		{decodeSeeds[1], false, true},
		{decodeSeeds[2], false, true},
		{decodeSeeds[3], false, true},
		{decodeSeeds[6], true, true},
		{decodeSeeds[7], false, true},
		{`{"queries":[]}`, true, true},
		{`{}`, true, true},
		{`{"w":[1,2],"w":[]}`, false, true},
		{`{"family":"topk"} trailing`, false, true},
		{`{"family":"top\u006b","k":1}`, false, false},
		{`{"family":null}`, false, false},
		{`{"Family":"topk"}`, false, false},
		{`{"extra":1}`, false, false},
		{`{"queries":[{"k":1}],"queries":[{"k":2}]}`, true, false},
		{`{"family":"topk"}`, true, false},
		{`{"queries":[{"family":"topk"}]}`, false, false},
	} {
		_, took := d.parse([]byte(c.body), c.batch)
		if took != c.takes {
			t.Errorf("batch %v %q: parser takes it = %v, want %v", c.batch, c.body, took, c.takes)
		}
		if _, err := decodeWithJSON(c.body, c.batch); err != nil {
			t.Errorf("batch %v %q: encoding/json refuses it: %v", c.batch, c.body, err)
		}
	}
}

package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// JSON export: every experiment's data structure serializes to a
// machine-readable file, so external analysis (plotting notebooks,
// regression dashboards) can consume the reproduction without parsing the
// textual tables.

// WriteJSON marshals v with indentation into dir/name.json.
func WriteJSON(dir, name string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

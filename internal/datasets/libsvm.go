package datasets

import (
	"bufio"
	"fmt"
	"io"
)

// WriteLibSVM writes the dataset in LibSVM format.
func WriteLibSVM(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < d.NumInstances(); i++ {
		if _, err := fmt.Fprintf(bw, "%g", d.Labels[i]); err != nil {
			return err
		}
		feat, val := d.X.Row(i)
		for k := range feat {
			if _, err := fmt.Fprintf(bw, " %d:%g", feat[k], val[k]); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Waveform dump: implement a buffered link at transistor level, simulate
// the worst-case switching event, and write the victim input/output
// waveforms (plus per-stage probes) to a CSV for plotting — a direct view
// into what the golden sign-off engine actually computes.
//
// Usage:   ./examples/waveform_dump [tech] [length_mm] [out.csv]
// Plot:    python3 -c "import pandas as p, matplotlib.pyplot as m; \
//            d=p.read_csv('waves.csv'); d.plot(x='time_ps'); m.show()"
#include <cstdio>
#include <string>

#include "spice/deck.hpp"
#include "spice/transient.hpp"
#include "sta/signoff.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/textfile.hpp"
#include "util/units.hpp"

using namespace pim;
using namespace pim::unit;

int main(int argc, char** argv) {
  const TechNode node = argc > 1 ? tech_node_from_name(argv[1]) : TechNode::N65;
  const double length_mm = argc > 2 ? parse_double(argv[2]) : 3.0;
  const std::string out_path = argc > 3 ? argv[3] : "waves.csv";

  const Technology& tech = technology(node);
  LinkContext ctx;
  ctx.length = length_mm * mm;
  ctx.input_slew = 100 * ps;
  LinkDesign design;
  design.drive = 16;
  design.num_repeaters = std::max(1, static_cast<int>(length_mm));

  printf("implementing %.1f mm x %d repeaters at %s (worst-case aggressors)...\n",
         length_mm, design.num_repeaters, tech.name.c_str());
  const LinkNetlist net = build_link_netlist(tech, ctx, design);
  printf("netlist: %zu nodes, %zu devices, %zu capacitors\n", net.circuit.node_count(),
         net.circuit.mosfets().size(), net.circuit.capacitors().size());

  // Also archive the deck so the exact circuit can be inspected/replayed.
  write_text_file("link_netlist.sp", write_deck(net.circuit), "waveform_dump");
  printf("wrote link_netlist.sp\n");

  TransientOptions opt;
  opt.dt = 0.5 * ps;
  opt.t_stop = 0.3e-9 + 8.0 * length_mm * 100 * ps;  // generous window
  const TransientResult res =
      run_transient(net.circuit, opt, {net.victim_in, net.victim_out});

  CsvWriter csv({"time_ps", "victim_in_v", "victim_out_v"});
  const auto& vin = res.trace(net.victim_in);
  const auto& vout = res.trace(net.victim_out);
  for (size_t i = 0; i < res.time.size(); i += 4) {  // decimate 4x
    csv.add_row({format("%.1f", res.time[i] / ps), format("%.4f", vin[i]),
                 format("%.4f", vout[i])});
  }
  csv.write_file(out_path);
  printf("wrote %s (%zu samples)\n", out_path.c_str(), csv.row_count());
  return 0;
}

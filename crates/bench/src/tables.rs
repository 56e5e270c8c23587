//! The paper's Tables 1–5.

use crate::layer;
use maestro_core::{analyze, reuse::opportunity_table};
use maestro_dnn::{zoo, Coupling};
use maestro_dse::variants::kcp_variant;
use maestro_hw::{Accelerator, EnergyModel, ReuseSupport, SpatialMulticast, SpatialReduction};
use maestro_ir::Style;
use std::io::{self, Write};

/// Table 1: reuse opportunities per spatially-mapped dimension and per
/// innermost temporally-mapped dimension, for CONV2D.
pub fn table1(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table 1 — reuse opportunities (CONV2D coupling)")?;
    writeln!(
        out,
        "{:<6} | {:^33} | {:^33}",
        "", "Spatially mapped", "Innermost temporal"
    )?;
    writeln!(
        out,
        "{:<6} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "Dim", "Input", "Filter", "Output", "Input", "Filter", "Output"
    )?;
    writeln!(out, "{}", "-".repeat(78))?;
    for (coupling, heading) in [
        (Coupling::conv2d(), ""),
        (
            Coupling::depthwise(),
            "\nDepthwise coupling (output follows C, no channel reduction):\n",
        ),
    ] {
        write!(out, "{heading}")?;
        for row in opportunity_table(&coupling) {
            writeln!(
                out,
                "{:<6} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
                row.dim.to_string(),
                row.spatial[0].to_string(),
                row.spatial[1].to_string(),
                row.spatial[2].to_string(),
                row.temporal[0].to_string(),
                row.temporal[1].to_string(),
                row.temporal[2].to_string(),
            )?;
        }
    }
    Ok(())
}

/// Table 2: hardware implementation choices for the four reuse classes,
/// with the latency/amplification each choice implies in this
/// workspace's model (for a 64-wide level).
pub fn table2(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table 2 — hardware implementation choices for reuse")?;
    writeln!(
        out,
        "{:<10} {:<14} {:<28} {:>8} {:>14}",
        "Reuse", "Comm. type", "Implementation", "latency", "upstream amp."
    )?;
    writeln!(out, "{}", "-".repeat(78))?;
    let n = 64;
    for m in [
        SpatialMulticast::Fanout,
        SpatialMulticast::StoreAndForward,
        SpatialMulticast::None,
    ] {
        writeln!(
            out,
            "{:<10} {:<14} {:<28} {:>8} {:>11} rd",
            "spatial",
            "multicast",
            m.to_string(),
            m.extra_latency(n),
            m.upstream_reads(n)
        )?;
    }
    for r in [
        SpatialReduction::Fanin,
        SpatialReduction::ReduceAndForward,
        SpatialReduction::None,
    ] {
        writeln!(
            out,
            "{:<10} {:<14} {:<28} {:>8} {:>11} wr",
            "spatial",
            "reduction",
            r.to_string(),
            r.extra_latency(n),
            r.upstream_writes(n)
        )?;
    }
    for (comm, implementation, amp) in [
        ("multicast", "stationary buffer (L1)", "1 rd"),
        ("reduction", "read-modify-write buffer", "1 wr"),
    ] {
        writeln!(
            out,
            "{:<10} {:<14} {:<28} {:>8} {:>14}",
            "temporal", comm, implementation, 0, amp
        )?;
    }
    Ok(())
}

/// Table 3: the five dataflow styles in the textual DSL, with their
/// characteristics.
pub fn table3(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table 3 — the five evaluated dataflow styles\n")?;
    for s in Style::ALL {
        writeln!(out, "== {} ({}) ==", s.short_name(), s.alias())?;
        writeln!(out, "{}", s.dataflow())?;
        writeln!(out, "characteristics: {}\n", s.characteristics())?;
    }
    Ok(())
}

/// Table 4: DNN operator classes with examples drawn from the model zoo.
pub fn table4(out: &mut dyn Write) -> io::Result<()> {
    let mut models = zoo::figure10_models(1);
    models.push(zoo::dcgan(1));
    writeln!(out, "Table 4 — operators in state-of-the-art DNNs")?;
    writeln!(out, "{:<22} examples", "Operator class")?;
    writeln!(out, "{}", "-".repeat(72))?;
    for row in zoo::operator_table(&models, 3) {
        writeln!(
            out,
            "{:<22} {}",
            row.class.to_string(),
            row.examples.join(", ")
        )?;
    }
    Ok(())
}

/// Table 5: the impact of multicast/reduction support, NoC bandwidth and
/// buffer size on a KC-P design for VGG16 CONV2 (56 PEs, as in the
/// paper).
pub fn table5(out: &mut dyn Write) -> io::Result<()> {
    let vgg = zoo::vgg16(1);
    let conv2 = layer(&vgg, "CONV2");
    let em = EnergyModel::cacti_28nm(2048, 1 << 20);
    let mk = |bw: u64, support: ReuseSupport| {
        Accelerator::builder(56)
            .noc_bandwidth(bw)
            .support(support)
            .build()
    };
    // The paper's 56-PE design point: KC-P with a 8-wide channel cluster (7 K-clusters x 8 C-lanes)
    // (the canonical Cluster(64) cannot subdivide 56 PEs).
    let df = kcp_variant(8, 1, 1);
    let rows: Vec<(&str, Accelerator)> = vec![
        ("Reference", mk(40, ReuseSupport::full())),
        ("Small bandwidth", mk(2, ReuseSupport::full())),
        (
            "No multicast",
            mk(
                40,
                ReuseSupport {
                    multicast: SpatialMulticast::None,
                    reduction: SpatialReduction::Fanin,
                },
            ),
        ),
        (
            "No sp. reduction",
            mk(
                40,
                ReuseSupport {
                    multicast: SpatialMulticast::Fanout,
                    reduction: SpatialReduction::None,
                },
            ),
        ),
    ];
    writeln!(
        out,
        "Table 5 — HW support impact (KC-P, VGG16 CONV2, 56 PEs)"
    )?;
    writeln!(
        out,
        "{:<18} {:>4} {:>6} {:>6} {:>12} {:>14} {:>10}",
        "Design point", "BW", "mcast", "red", "tput MAC/cyc", "energy (pJ)", "L1 B/PE"
    )?;
    writeln!(out, "{}", "-".repeat(76))?;
    let reference = analyze(conv2, &df, &rows[0].1).expect("reference");
    let ref_energy = reference.energy(&em);
    for (name, acc) in &rows {
        let r = analyze(conv2, &df, acc).expect(name);
        writeln!(
            out,
            "{:<18} {:>4} {:>6} {:>6} {:>12.2} {:>14.3e} {:>10}  ({:+.1}% energy)",
            name,
            acc.noc.bandwidth,
            (acc.support.multicast != SpatialMulticast::None) as u8,
            (acc.support.reduction != SpatialReduction::None) as u8,
            r.throughput(),
            r.energy(&em),
            r.l1_per_pe_elems,
            100.0 * (r.energy(&em) / ref_energy - 1.0),
        )?;
    }
    Ok(())
}

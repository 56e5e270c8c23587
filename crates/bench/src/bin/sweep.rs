//! Sensitivity sweeps backing the paper's §5.2 discussion: throughput vs
//! NoC bandwidth ("an accelerator can achieve peak throughput [only if]
//! the NoC provides sufficient bandwidth") and DRAM traffic vs L2
//! capacity (the buffer/throughput/energy balance of Figure 13's text).

use maestro_bench::layer;
use maestro_core::analyze;
use maestro_dnn::zoo;
use maestro_hw::Accelerator;
use maestro_ir::Style;

fn main() {
    let vgg = zoo::vgg16(1);
    println!("Throughput (MACs/cycle) vs NoC bandwidth, 256 PEs:\n");
    print!("{:<10}", "BW el/cy");
    let bws = [1u64, 2, 4, 8, 16, 32, 64, 128];
    for bw in bws {
        print!("{bw:>9}");
    }
    println!();
    for (lname, style) in [
        ("CONV2", Style::KCP),
        ("CONV2", Style::YRP),
        ("CONV11", Style::KCP),
        ("CONV11", Style::CP),
    ] {
        let l = layer(&vgg, lname);
        print!("{:<10}", format!("{}/{}", style.short_name(), lname));
        for bw in bws {
            let acc = Accelerator::builder(256).noc_bandwidth(bw).build();
            match analyze(l, &style.dataflow(), &acc) {
                Ok(r) => print!("{:>9.1}", r.throughput()),
                Err(_) => print!("{:>9}", "-"),
            }
        }
        println!();
    }

    println!("\nDRAM traffic (elements) vs L2 capacity, KC-P on CONV2:\n");
    print!("{:<10}", "L2 KB");
    let l2s = [16u64, 64, 256, 1024, 4096, 16384];
    for l2 in l2s {
        print!("{l2:>12}");
    }
    println!();
    print!("{:<10}", "DRAM");
    let l = layer(&vgg, "CONV2");
    for l2 in l2s {
        let acc = Accelerator::builder(256).l2_bytes(l2 * 1024).build();
        let r = analyze(l, &Style::KCP.dataflow(), &acc).expect("analysis");
        let dram = r.counts.dram_read.total() + r.counts.dram_write.total();
        print!("{dram:>12.3e}");
    }
    println!();
}

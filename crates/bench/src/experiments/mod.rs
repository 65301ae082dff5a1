//! One module per experiment; `report` lists the names it accepts.

pub mod ablation;
pub mod chaos_recovery;
pub mod co_schedule;
pub mod dvfs_pareto;
pub mod energy;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet_scaling;
pub mod headline;
pub mod multi_array_scaling;
pub mod runtime_throughput;
pub mod serve_latency;
pub mod sim_speed;
pub mod streaming_gemm;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod timing;
pub mod trace_overhead;

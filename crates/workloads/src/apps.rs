//! The six latency-critical services of Table 1.
//!
//! Each constructor builds a [`ServiceSpec`] whose component DAG matches
//! the paper's description and whose parameters are calibrated so the
//! *relative* behaviour matches the paper's measurements:
//!
//! * sojourn-time ordering and growth over load (Figure 6),
//! * per-component interference-sensitivity ordering (Figure 2),
//! * contribution ordering used for thresholds (§3.5.1, §5.3.2).
//!
//! Absolute time scales are normalized so every service saturates at a
//! simulation-friendly few hundred requests/second; Table 1's nominal
//! MaxLoad/SLA values are carried for reporting.

use crate::component::ComponentBuilder;
use crate::sensitivity::Sensitivity;
use crate::service::{Call, ServiceNode, ServiceSpec};

/// E-commerce (TPC-W): HAProxy → Tomcat → Amoeba → MySQL.
///
/// MySQL is the bottleneck and the most interference-sensitive Servpod
/// (paper: loadlimit 76%, slacklimit 0.347); Tomcat is second (87%,
/// 0.078); HAProxy has tiny sojourn but high relative variance; Amoeba is
/// small and very stable (Figure 6).
pub fn ecommerce() -> ServiceSpec {
    let haproxy = ComponentBuilder::new("haproxy", 0.8, 0.75)
        .post(0.3, 0.75)
        .workers(16)
        .contention(1.5)
        .knee(0.95)
        .cores(4)
        .mem_mb(2 * 1024)
        .membw_per_req(2.0)
        .net_per_req(24.0)
        .llc_mb(2.0)
        .sensitivity(Sensitivity::new(0.1, 0.12, 0.1, 0.6, 0.5))
        .build();
    let tomcat = ComponentBuilder::new("tomcat", 18.0, 0.45)
        .post(6.0, 0.45)
        .workers(24)
        .contention(3.0)
        .knee(0.93)
        .cores(16)
        .mem_mb(24 * 1024)
        .membw_per_req(18.0)
        .net_per_req(16.0)
        .llc_mb(10.0)
        // Tomcat is the most DVFS-sensitive of the four (Figure 2b).
        .sensitivity(Sensitivity::new(0.25, 0.5, 0.4, 0.15, 0.9))
        .build();
    let amoeba = ComponentBuilder::new("amoeba", 2.2, 0.15)
        .workers(16)
        .contention(1.0)
        .knee(0.98)
        .cores(4)
        .mem_mb(4 * 1024)
        .membw_per_req(3.0)
        .net_per_req(12.0)
        .llc_mb(2.0)
        .sensitivity(Sensitivity::new(0.08, 0.12, 0.1, 0.12, 0.3))
        .build();
    let mysql = ComponentBuilder::new("mysql", 14.0, 0.80)
        .workers(12)
        .contention(8.0)
        .knee(0.78)
        .cores(12)
        .mem_mb(32 * 1024)
        .membw_per_req(45.0)
        .net_per_req(8.0)
        .llc_mb(16.0)
        // MySQL suffers most under stream-dram(big)/stream-llc(big)/
        // CPU-stress/iperf (Figure 2b).
        .sensitivity(Sensitivity::new(0.5, 1.2, 1.6, 0.6, 0.4))
        .build();
    ServiceSpec {
        name: "e-commerce".into(),
        nodes: vec![
            ServiceNode::seq(haproxy, vec![Call::always(1)]),
            ServiceNode::seq(tomcat, vec![Call::always(2)]),
            ServiceNode::seq(amoeba, vec![Call::always(3)]),
            ServiceNode::leaf(mysql),
        ],
        sla_ms: 250.0,
        nominal_maxload_qps: 1300.0,
        containers: 16,
    }
}

/// Redis key-value store: Master fanning out to a Slave Servpod.
///
/// The Master distributes requests and operates on data, so it leans on
/// LLC, memory and network bandwidth far more than the Slave (Figure 2a:
/// up to 28× difference under stream-llc(big)).
pub fn redis() -> ServiceSpec {
    let master = ComponentBuilder::new("master", 6.0, 0.50)
        .post(3.0, 0.50)
        .workers(8)
        .contention(6.0)
        .knee(0.87)
        .cores(10)
        .mem_mb(48 * 1024)
        .membw_per_req(30.0)
        .net_per_req(12.0)
        .llc_mb(18.0)
        .sensitivity(Sensitivity::new(0.5, 2.2, 1.8, 1.0, 0.6))
        .build();
    let slave = ComponentBuilder::new("slave", 7.0, 0.35)
        .workers(10)
        .contention(3.0)
        .knee(0.97)
        .cores(10)
        .mem_mb(48 * 1024)
        .membw_per_req(12.0)
        .net_per_req(8.0)
        .llc_mb(6.0)
        .sensitivity(Sensitivity::new(0.12, 0.35, 0.452, 0.25, 0.35))
        .build();
    ServiceSpec {
        name: "redis".into(),
        nodes: vec![
            ServiceNode::fan_out(master, vec![Call::always(1)]),
            ServiceNode::leaf(slave),
        ],
        sla_ms: 1.15,
        nominal_maxload_qps: 86_000.0,
        containers: 18,
    }
}

/// Solr search: Apache+Solr frontend with a Zookeeper coordination
/// Servpod visited by a fraction of requests.
///
/// Zookeeper has the smallest contribution of any Servpod in the
/// evaluation (loadlimit 0.93, slacklimit 0.035) — it is where Rhythm
/// gains the most BE throughput (Figure 9c).
pub fn solr() -> ServiceSpec {
    let apache_solr = ComponentBuilder::new("apache+solr", 30.0, 0.55)
        .workers(16)
        .contention(6.0)
        .knee(0.82)
        .cores(20)
        .mem_mb(32 * 1024)
        .membw_per_req(40.0)
        .net_per_req(30.0)
        .llc_mb(14.0)
        .sensitivity(Sensitivity::new(0.5, 1.3, 1.2, 0.5, 0.8))
        .build();
    let zookeeper = ComponentBuilder::new("zookeeper", 4.0, 0.20)
        .workers(8)
        .contention(1.5)
        .knee(0.99)
        .cores(4)
        .mem_mb(4 * 1024)
        .membw_per_req(2.0)
        .net_per_req(4.0)
        .llc_mb(1.5)
        .sensitivity(Sensitivity::new(0.1, 0.25, 0.3, 0.15, 0.3))
        .build();
    ServiceSpec {
        name: "solr".into(),
        nodes: vec![
            ServiceNode::seq(apache_solr, vec![Call::sometimes(1, 0.4)]),
            ServiceNode::leaf(zookeeper),
        ],
        sla_ms: 350.0,
        nominal_maxload_qps: 400.0,
        containers: 15,
    }
}

/// Elasticsearch: Kibana frontend calling the Index engine.
pub fn elasticsearch() -> ServiceSpec {
    let kibana = ComponentBuilder::new("kibana", 8.0, 0.50)
        .post(4.0, 0.50)
        .workers(16)
        .contention(3.0)
        .knee(0.96)
        .cores(8)
        .mem_mb(8 * 1024)
        .membw_per_req(8.0)
        .net_per_req(40.0)
        .llc_mb(4.0)
        .sensitivity(Sensitivity::new(0.2, 0.4, 0.4, 0.4, 0.5))
        .build();
    let index = ComponentBuilder::new("index", 14.0, 0.60)
        .workers(12)
        .contention(7.0)
        .knee(0.80)
        .cores(16)
        .mem_mb(48 * 1024)
        .membw_per_req(55.0)
        .net_per_req(20.0)
        .llc_mb(16.0)
        .sensitivity(Sensitivity::new(0.5, 1.4, 1.5, 0.4, 0.5))
        .build();
    ServiceSpec {
        name: "elasticsearch".into(),
        nodes: vec![
            ServiceNode::seq(kibana, vec![Call::always(1)]),
            ServiceNode::leaf(index),
        ],
        sla_ms: 200.0,
        nominal_maxload_qps: 750.0,
        containers: 12,
    }
}

/// Elgg social network: Nginx+PHP-FPM → Memcached, with cache misses
/// falling through to MySQL.
pub fn elgg() -> ServiceSpec {
    let nginx_php = ComponentBuilder::new("nginx+php-fpm", 20.0, 0.50)
        .post(8.0, 0.50)
        .workers(12)
        .contention(5.0)
        .knee(0.91)
        .cores(12)
        .mem_mb(16 * 1024)
        .membw_per_req(15.0)
        .net_per_req(36.0)
        .llc_mb(8.0)
        .sensitivity(Sensitivity::new(0.3, 0.6, 0.552, 0.4, 0.8))
        .build();
    let memcached = ComponentBuilder::new("memcached", 3.0, 0.30)
        .post(1.0, 0.30)
        .workers(16)
        .contention(1.5)
        .knee(0.93)
        .cores(6)
        .mem_mb(24 * 1024)
        .membw_per_req(10.0)
        .net_per_req(10.0)
        .llc_mb(12.0)
        .sensitivity(Sensitivity::new(0.3, 1.0, 0.8, 0.8, 0.3))
        .build();
    let mysql = ComponentBuilder::new("mysql", 40.0, 0.70)
        .workers(8)
        .contention(8.0)
        .knee(0.84)
        .cores(12)
        .mem_mb(32 * 1024)
        .membw_per_req(50.0)
        .net_per_req(8.0)
        .llc_mb(16.0)
        .sensitivity(Sensitivity::new(0.5, 1.2, 1.5, 0.5, 0.4))
        .build();
    ServiceSpec {
        name: "elgg".into(),
        nodes: vec![
            ServiceNode::seq(nginx_php, vec![Call::always(1)]),
            ServiceNode::seq(memcached, vec![Call::sometimes(2, 0.3)]),
            ServiceNode::leaf(mysql),
        ],
        sla_ms: 320.0,
        nominal_maxload_qps: 200.0,
        containers: 8,
    }
}

/// SNMS, the DeathStarBench social-network microservice application,
/// divided into three Servpods as in §5.3.2: frontend (3 microservices),
/// UserService (14) and MediaService (13).
///
/// The frontend fans out to UserService and MediaService in parallel;
/// UserService dominates the critical path (the paper derives
/// contributions 0.295 / 0.14 / 0.565 for media / frontend / user).
pub fn snms() -> ServiceSpec {
    let frontend = ComponentBuilder::new("frontend", 6.0, 0.40)
        .post(3.0, 0.40)
        .workers(24)
        .contention(2.0)
        .knee(0.96)
        .cores(20)
        .mem_mb(16 * 1024)
        .membw_per_req(8.0)
        .net_per_req(48.0)
        .llc_mb(4.0)
        .sensitivity(Sensitivity::new(0.2, 0.3, 0.3, 0.7, 0.6))
        .build();
    let userservice = ComponentBuilder::new("userservice", 22.0, 0.65)
        .workers(16)
        .contention(6.0)
        .knee(0.86)
        .cores(20)
        .mem_mb(48 * 1024)
        .membw_per_req(35.0)
        .net_per_req(16.0)
        .llc_mb(14.0)
        .sensitivity(Sensitivity::new(0.5, 1.2, 1.1, 0.4, 0.6))
        .build();
    let mediaservice = ComponentBuilder::new("mediaservice", 16.0, 0.50)
        .workers(16)
        .contention(4.0)
        .knee(0.92)
        .cores(20)
        .mem_mb(48 * 1024)
        .membw_per_req(45.0)
        .net_per_req(60.0)
        .llc_mb(10.0)
        .sensitivity(Sensitivity::new(0.4, 0.7, 0.8, 0.6, 0.5))
        .build();
    ServiceSpec {
        name: "snms".into(),
        nodes: vec![
            ServiceNode::fan_out(
                frontend,
                vec![Call::sometimes(1, 0.9), Call::sometimes(2, 0.6)],
            ),
            ServiceNode::leaf(userservice),
            ServiceNode::leaf(mediaservice),
        ],
        sla_ms: 380.0,
        nominal_maxload_qps: 1500.0,
        containers: 30,
    }
}

/// All five LC services of the main evaluation (Figures 9-15), in the
/// paper's order.
pub fn evaluation_apps() -> Vec<ServiceSpec> {
    vec![ecommerce(), redis(), solr(), elgg(), elasticsearch()]
}

/// All six LC services including the SNMS microservice case study.
pub fn all_apps() -> Vec<ServiceSpec> {
    let mut v = evaluation_apps();
    v.push(snms());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_validate() {
        for app in all_apps() {
            app.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        }
    }

    #[test]
    fn servpod_counts_match_table1() {
        assert_eq!(ecommerce().len(), 4);
        assert_eq!(redis().len(), 2);
        assert_eq!(solr().len(), 2);
        assert_eq!(elasticsearch().len(), 2);
        assert_eq!(elgg().len(), 3);
        assert_eq!(snms().len(), 3);
    }

    #[test]
    fn table1_slas_and_maxloads() {
        let e = ecommerce();
        assert_eq!(e.sla_ms, 250.0);
        assert_eq!(e.nominal_maxload_qps, 1300.0);
        assert_eq!(e.containers, 16);
        let r = redis();
        assert_eq!(r.sla_ms, 1.15);
        assert_eq!(r.nominal_maxload_qps, 86_000.0);
        assert_eq!(snms().nominal_maxload_qps, 1500.0);
    }

    #[test]
    fn ecommerce_bottleneck_is_mysql() {
        let e = ecommerce();
        assert_eq!(e.nodes[e.bottleneck()].component.name, "mysql");
    }

    #[test]
    fn sim_maxloads_are_simulation_friendly() {
        for app in all_apps() {
            let m = app.sim_maxload_rps();
            assert!(
                (40.0..2_000.0).contains(&m),
                "{}: sim maxload {m} out of range",
                app.name
            );
        }
    }

    #[test]
    fn redis_master_more_sensitive_than_slave() {
        // Figure 2a: Master ≫ Slave under stream-llc(big), stream-dram
        // (big) and CPU-stress.
        let r = redis();
        let master = &r.nodes[0].component.sensitivity;
        let slave = &r.nodes[1].component.sensitivity;
        assert!(master.llc > 4.0 * slave.llc);
        assert!(master.dram > 2.0 * slave.dram);
        assert!(master.cpu > 2.0 * slave.cpu);
    }

    #[test]
    fn mysql_more_dram_sensitive_than_tomcat() {
        // Figure 2b: MySQL ≫ Tomcat for stream-dram(big); Tomcat more
        // DVFS-sensitive.
        let e = ecommerce();
        let tomcat = &e.nodes[1].component.sensitivity;
        let mysql = &e.nodes[3].component.sensitivity;
        assert!(mysql.dram > 2.0 * tomcat.dram);
        assert!(mysql.llc > tomcat.llc);
        assert!(tomcat.freq > mysql.freq);
    }

    #[test]
    fn zookeeper_is_least_sensitive_solr_pod() {
        let s = solr();
        let front = &s.nodes[0].component.sensitivity;
        let zk = &s.nodes[1].component.sensitivity;
        assert!(zk.max_component() < front.max_component());
    }

    #[test]
    fn snms_userservice_dominates() {
        let s = snms();
        let visits = s.expected_visits();
        let user = s.index_of("userservice").unwrap();
        let media = s.index_of("mediaservice").unwrap();
        // UserService carries more expected work per request.
        let work = |i: usize| visits[i] * s.nodes[i].component.mean_work_ms();
        assert!(work(user) > work(media));
    }

    #[test]
    fn fan_out_services_marked_parallel() {
        assert!(redis().nodes[0].parallel);
        assert!(snms().nodes[0].parallel);
        assert!(!ecommerce().nodes[0].parallel);
    }

    #[test]
    fn haproxy_has_high_relative_variance() {
        // Figure 6b: HAProxy's CoV share exceeds 20% despite a <5% sojourn
        // share. Its sigma must be the largest in e-commerce.
        let e = ecommerce();
        let sigma = |i: usize| match e.nodes[i].component.pre_ms {
            rhythm_sim::Dist::LogNormal { sigma, .. } => sigma,
            _ => 0.0,
        };
        assert!(sigma(0) > sigma(1), "haproxy vs tomcat");
        assert!(sigma(0) > sigma(2), "haproxy vs amoeba");
        // MySQL keeps the largest absolute dispersion (Figure 6b's
        // "MySQL's variance is always much larger than Tomcat").
        assert!(sigma(3) > sigma(1), "mysql vs tomcat");
    }

    #[test]
    fn evaluation_apps_order_matches_paper() {
        let names: Vec<String> = evaluation_apps().iter().map(|a| a.name.clone()).collect();
        assert_eq!(
            names,
            vec!["e-commerce", "redis", "solr", "elgg", "elasticsearch"]
        );
    }
}

//! The *application schema* (§3.3).
//!
//! "The detailed application information, parameters, and resource
//! requirements are encapsulated in an application schema in a XML format
//! … application characteristics, which include data, communication, or
//! computing intensive; estimated communication data size; resources
//! requirement; and estimated execution time on workstation with certain
//! computing power. The application schema is initially provided by the
//! users and is updated according to the statistics of actual executions."

use crate::doc::{document, parse, WriteXml, XmlElement, XmlError, XmlSink, XmlWriter};

/// Dominant resource characteristic of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppCharacteristic {
    /// Dominated by local data access; migrating it is rarely worthwhile.
    DataIntensive,
    /// Dominated by message traffic; destination link quality matters.
    CommIntensive,
    /// Dominated by CPU; destination load matters.
    ComputeIntensive,
}

impl AppCharacteristic {
    fn as_str(self) -> &'static str {
        match self {
            AppCharacteristic::DataIntensive => "data",
            AppCharacteristic::CommIntensive => "communication",
            AppCharacteristic::ComputeIntensive => "computing",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s.trim() {
            "data" => Some(AppCharacteristic::DataIntensive),
            "communication" => Some(AppCharacteristic::CommIntensive),
            "computing" => Some(AppCharacteristic::ComputeIntensive),
            _ => None,
        }
    }
}

/// Resources an application needs from a destination host.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceRequirements {
    /// Minimum free physical memory, kilobytes.
    pub mem_kb: u64,
    /// Minimum free disk, kilobytes.
    pub disk_kb: u64,
    /// Minimum relative CPU speed of the destination.
    pub min_cpu_speed: f64,
}

/// The application schema carried with every migration-enabled process.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationSchema {
    /// Application name (matches the process-table entry).
    pub app: String,
    /// Dominant characteristic.
    pub characteristic: AppCharacteristic,
    /// Estimated total communication volume, bytes.
    pub est_comm_bytes: u64,
    /// Resource requirements on a destination.
    pub requirements: ResourceRequirements,
    /// Estimated execution time in seconds on the reference workstation
    /// (cpu_speed = 1.0).
    pub est_exec_time_s: f64,
    /// Number of completed executions folded into the estimate.
    pub history_runs: u32,
}

impl ApplicationSchema {
    /// A compute-intensive schema with the given name and time estimate.
    pub fn compute(app: impl Into<String>, est_exec_time_s: f64) -> Self {
        ApplicationSchema {
            app: app.into(),
            characteristic: AppCharacteristic::ComputeIntensive,
            est_comm_bytes: 0,
            requirements: ResourceRequirements::default(),
            est_exec_time_s,
            history_runs: 0,
        }
    }

    /// Fold the measured execution time of a completed run into the
    /// estimate ("updated according to the statistics of actual
    /// executions"): a running mean over all observed runs, seeded by the
    /// user-provided estimate.
    pub fn record_run(&mut self, measured_s: f64) {
        let n = self.history_runs as f64;
        self.est_exec_time_s = (self.est_exec_time_s * (n + 1.0) + measured_s) / (n + 2.0);
        self.history_runs += 1;
    }

    /// Serialize to a standalone document (the form
    /// [`from_document`](Self::from_document) reads).
    pub fn to_document(&self) -> String {
        document(self)
    }

    /// Parse from the wire XML form.
    pub fn from_xml(el: &XmlElement) -> Result<Self, XmlError> {
        if el.name != "application-schema" {
            return Err(XmlError::UnexpectedRoot(el.name.clone()));
        }
        let app = el
            .get_attr("app")
            .ok_or_else(|| XmlError::MissingField("app".to_string()))?
            .to_string();
        let ch_text = el
            .field_text("characteristic")
            .ok_or_else(|| XmlError::MissingField("characteristic".to_string()))?;
        let characteristic = AppCharacteristic::from_str(&ch_text)
            .ok_or_else(|| XmlError::BadField("characteristic".to_string(), ch_text))?;
        let req = el
            .find("requirements")
            .ok_or_else(|| XmlError::MissingField("requirements".to_string()))?;
        Ok(ApplicationSchema {
            app,
            characteristic,
            est_comm_bytes: el.field_parse("est-comm-bytes")?,
            requirements: ResourceRequirements {
                mem_kb: req.field_parse("mem-kb")?,
                disk_kb: req.field_parse("disk-kb")?,
                min_cpu_speed: req.field_parse("min-cpu-speed")?,
            },
            est_exec_time_s: el.field_parse("est-exec-time-s")?,
            history_runs: el.field_parse("history-runs")?,
        })
    }

    /// Parse from a serialized document string.
    pub fn from_document(doc: &str) -> Result<Self, XmlError> {
        Self::from_xml(&parse(doc)?)
    }
}

impl WriteXml for ApplicationSchema {
    fn write_xml<S: XmlSink>(&self, w: &mut XmlWriter<'_, S>) {
        w.begin("application-schema");
        w.attr("app", &self.app);
        w.content();
        w.field("characteristic", self.characteristic.as_str());
        w.field_display("est-comm-bytes", self.est_comm_bytes);
        self.requirements.write_xml(w);
        w.field_display("est-exec-time-s", self.est_exec_time_s);
        w.field_display("history-runs", self.history_runs);
        w.close("application-schema");
    }
}

/// `<requirements>`, shared by the schema and `CandidateRequest`.
impl WriteXml for ResourceRequirements {
    fn write_xml<S: XmlSink>(&self, w: &mut XmlWriter<'_, S>) {
        w.open("requirements");
        w.field_display("mem-kb", self.mem_kb);
        w.field_display("disk-kb", self.disk_kb);
        w.field_display("min-cpu-speed", self.min_cpu_speed);
        w.close("requirements");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ApplicationSchema {
        ApplicationSchema {
            app: "test_tree".to_string(),
            characteristic: AppCharacteristic::ComputeIntensive,
            est_comm_bytes: 1_048_576,
            requirements: ResourceRequirements {
                mem_kb: 32_768,
                disk_kb: 1_024,
                min_cpu_speed: 0.5,
            },
            est_exec_time_s: 600.0,
            history_runs: 3,
        }
    }

    #[test]
    fn xml_roundtrip() {
        let s = sample();
        let doc = s.to_document();
        let back = ApplicationSchema::from_document(&doc).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn characteristics_roundtrip() {
        for c in [
            AppCharacteristic::DataIntensive,
            AppCharacteristic::CommIntensive,
            AppCharacteristic::ComputeIntensive,
        ] {
            assert_eq!(AppCharacteristic::from_str(c.as_str()), Some(c));
        }
        assert_eq!(AppCharacteristic::from_str("other"), None);
    }

    #[test]
    fn record_run_converges_to_measurements() {
        let mut s = ApplicationSchema::compute("x", 1000.0);
        for _ in 0..200 {
            s.record_run(500.0);
        }
        assert!(
            (s.est_exec_time_s - 500.0).abs() < 10.0,
            "{}",
            s.est_exec_time_s
        );
        assert_eq!(s.history_runs, 200);
    }

    #[test]
    fn record_run_single_observation_moves_estimate() {
        let mut s = ApplicationSchema::compute("x", 1000.0);
        s.record_run(400.0);
        assert!(s.est_exec_time_s < 1000.0 && s.est_exec_time_s > 400.0);
    }

    #[test]
    fn rejects_wrong_root() {
        let e = ApplicationSchema::from_document("<nope/>").unwrap_err();
        assert!(matches!(e, XmlError::UnexpectedRoot(_)));
    }

    #[test]
    fn rejects_bad_characteristic() {
        let doc = sample().to_document().replace("computing", "quantum");
        let e = ApplicationSchema::from_document(&doc).unwrap_err();
        assert!(matches!(e, XmlError::BadField(_, _)));
    }
}

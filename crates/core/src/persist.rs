//! Persistence for trained merged-interface systems.
//!
//! A trained [`MeiRcs`] round-trips through a text container that embeds the
//! interface geometry, the device parameters the crossbars were programmed
//! with, and the `neural::io` network body — so a design found by the DSE
//! can be checked in and re-deployed without retraining:
//!
//! ```text
//! meircs v1
//! interface <in_groups> <in_bits> <out_groups> <out_bits> <coding>
//! hidden <H>
//! device <g_on> <g_off> <levels|continuous> <rate> <v_th> <window_exp>
//! weighted_loss <true|false>
//! --- network ---
//! mlp v1
//! …
//! ```

use std::error::Error;
use std::fmt;

use interface::BitCoding;
use neural::{Mlp, ParseMlpError};
use rram::{DeviceParams, QuantizationMode};

use crate::error::TrainRcsError;
use crate::mei_arch::{MeiConfig, MeiRcs};

/// Error reading a serialized [`MeiRcs`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseRcsError {
    /// The header line is missing or has the wrong magic/version.
    BadHeader,
    /// A structural line is malformed.
    BadStructure(String),
    /// The embedded network is malformed.
    Network(ParseMlpError),
    /// The network shape contradicts the declared interfaces.
    ShapeMismatch(String),
    /// Remapping the weights onto crossbars failed.
    Rebuild(String),
}

impl fmt::Display for ParseRcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRcsError::BadHeader => {
                write!(f, "missing or unsupported header (want `meircs v1`)")
            }
            ParseRcsError::BadStructure(s) => write!(f, "malformed line: {s}"),
            ParseRcsError::Network(e) => write!(f, "embedded network: {e}"),
            ParseRcsError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
            ParseRcsError::Rebuild(s) => write!(f, "could not rebuild crossbars: {s}"),
        }
    }
}

impl Error for ParseRcsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseRcsError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseMlpError> for ParseRcsError {
    fn from(e: ParseMlpError) -> Self {
        ParseRcsError::Network(e)
    }
}

fn coding_name(c: BitCoding) -> &'static str {
    match c {
        BitCoding::Binary => "binary",
        BitCoding::Gray => "gray",
    }
}

fn coding_from(s: &str) -> Result<BitCoding, ParseRcsError> {
    match s {
        "binary" => Ok(BitCoding::Binary),
        "gray" => Ok(BitCoding::Gray),
        other => Err(ParseRcsError::BadStructure(format!(
            "unknown coding `{other}`"
        ))),
    }
}

impl MeiRcs {
    /// Serialize this system (interfaces, device parameters, trained
    /// weights) to the `meircs v1` text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let cfg = self.config();
        let dev = cfg.device;
        let levels = match dev.quantization {
            QuantizationMode::Continuous => "continuous".to_string(),
            QuantizationMode::Levels(n) => n.to_string(),
        };
        format!(
            "meircs v1\ninterface {} {} {} {} {}\nhidden {}\ndevice {:?} {:?} {} {:?} {:?} {}\nweighted_loss {}\n--- network ---\n{}",
            self.input_spec().groups(),
            self.input_spec().bits(),
            self.output_spec().groups(),
            self.output_spec().bits(),
            coding_name(self.input_spec().coding()),
            self.hidden(),
            dev.g_on,
            dev.g_off,
            levels,
            dev.program_rate,
            dev.v_threshold,
            dev.window_exponent,
            cfg.weighted_loss,
            self.mlp().to_text(),
        )
    }

    /// Parse a system from the `meircs v1` text format, reprogramming fresh
    /// crossbars from the stored weights.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRcsError`] on malformed input or if the stored shape
    /// is inconsistent.
    pub fn from_text(text: &str) -> Result<MeiRcs, ParseRcsError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("meircs v1") {
            return Err(ParseRcsError::BadHeader);
        }
        let structural = |line: Option<&str>, prefix: &str| -> Result<Vec<String>, ParseRcsError> {
            let line = line.ok_or_else(|| ParseRcsError::BadStructure("unexpected EOF".into()))?;
            let body = line
                .strip_prefix(prefix)
                .ok_or_else(|| ParseRcsError::BadStructure(line.to_string()))?;
            Ok(body.split_whitespace().map(ToString::to_string).collect())
        };

        let iface = structural(lines.next(), "interface ")?;
        if iface.len() != 5 {
            return Err(ParseRcsError::BadStructure(format!(
                "interface {}",
                iface.join(" ")
            )));
        }
        let parse_usize = |s: &str| -> Result<usize, ParseRcsError> {
            s.parse()
                .map_err(|_| ParseRcsError::BadStructure(s.to_string()))
        };
        let parse_f64 = |s: &str| -> Result<f64, ParseRcsError> {
            s.parse()
                .map_err(|_| ParseRcsError::BadStructure(s.to_string()))
        };
        let in_groups = parse_usize(&iface[0])?;
        let in_bits = parse_usize(&iface[1])?;
        let out_groups = parse_usize(&iface[2])?;
        let out_bits = parse_usize(&iface[3])?;
        let coding = coding_from(&iface[4])?;

        let hidden = parse_usize(
            structural(lines.next(), "hidden ")?
                .first()
                .ok_or_else(|| ParseRcsError::BadStructure("hidden".into()))?,
        )?;

        let dev = structural(lines.next(), "device ")?;
        if dev.len() != 6 {
            return Err(ParseRcsError::BadStructure(format!(
                "device {}",
                dev.join(" ")
            )));
        }
        let quantization = if dev[2] == "continuous" {
            QuantizationMode::Continuous
        } else {
            QuantizationMode::Levels(
                dev[2]
                    .parse()
                    .map_err(|_| ParseRcsError::BadStructure(dev[2].clone()))?,
            )
        };
        let device = DeviceParams {
            g_on: parse_f64(&dev[0])?,
            g_off: parse_f64(&dev[1])?,
            quantization,
            program_rate: parse_f64(&dev[3])?,
            v_threshold: parse_f64(&dev[4])?,
            window_exponent: parse_usize(&dev[5])? as u32,
        };
        if !device.is_valid() {
            return Err(ParseRcsError::BadStructure(
                "invalid device parameters".into(),
            ));
        }

        let weighted = structural(lines.next(), "weighted_loss ")?;
        let weighted_loss = match weighted.first().map(String::as_str) {
            Some("true") => true,
            Some("false") => false,
            _ => return Err(ParseRcsError::BadStructure("weighted_loss".into())),
        };

        let sep = lines.next();
        if sep.map(str::trim) != Some("--- network ---") {
            return Err(ParseRcsError::BadStructure(
                "missing network separator".into(),
            ));
        }
        let body: String = lines.collect::<Vec<_>>().join("\n");
        let mlp = Mlp::from_text(&body)?;

        let config = MeiConfig {
            in_bits,
            out_bits,
            hidden,
            weighted_loss,
            coding,
            device,
            ..MeiConfig::default()
        };
        // The constructor training uses checks the header against the
        // network.
        MeiRcs::from_trained(mlp, &config, in_groups, out_groups).map_err(|e| match e {
            TrainRcsError::InvalidConfig(_) => ParseRcsError::BadStructure(e.to_string()),
            TrainRcsError::DimensionMismatch { .. } => ParseRcsError::ShapeMismatch(e.to_string()),
            _ => ParseRcsError::Rebuild(e.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::Dataset;
    use prng::rngs::StdRng;
    use prng::{Rng, SeedableRng};

    fn trained() -> MeiRcs {
        let mut rng = StdRng::seed_from_u64(3);
        let data = Dataset::generate(300, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(-x * x).exp()])
        })
        .unwrap();
        let mut cfg = MeiConfig::quick_test();
        cfg.train.epochs = 40;
        MeiRcs::train(&data, &cfg).unwrap()
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let rcs = trained();
        let text = rcs.to_text();
        let back = MeiRcs::from_text(&text).unwrap();
        for &x in &[0.1, 0.33, 0.5, 0.77, 0.95] {
            assert_eq!(rcs.infer(&[x]).unwrap(), back.infer(&[x]).unwrap(), "x={x}");
        }
        assert_eq!(rcs.topology(), back.topology());
        assert_eq!(rcs.input_spec().coding(), back.input_spec().coding());
    }

    #[test]
    fn gray_coding_survives_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = Dataset::generate(200, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![x])
        })
        .unwrap();
        let mut cfg = MeiConfig::quick_test();
        cfg.coding = BitCoding::Gray;
        cfg.train.epochs = 20;
        let rcs = MeiRcs::train(&data, &cfg).unwrap();
        let back = MeiRcs::from_text(&rcs.to_text()).unwrap();
        assert_eq!(back.input_spec().coding(), BitCoding::Gray);
        assert_eq!(rcs.infer(&[0.5]).unwrap(), back.infer(&[0.5]).unwrap());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(
            MeiRcs::from_text(""),
            Err(ParseRcsError::BadHeader)
        ));
        assert!(matches!(
            MeiRcs::from_text("nope"),
            Err(ParseRcsError::BadHeader)
        ));
        assert!(matches!(
            MeiRcs::from_text("meircs v1\ninterface 1 2 3"),
            Err(ParseRcsError::BadStructure(_))
        ));
        let rcs = trained();
        let text = rcs.to_text();
        // Corrupt the interface so the embedded network no longer fits.
        let bad = text.replace("interface 1 6 1 6", "interface 1 5 1 6");
        assert!(matches!(
            MeiRcs::from_text(&bad),
            Err(ParseRcsError::ShapeMismatch(_))
        ));
        // Hand-built headers the constructor must check, not trust.
        let device = text.lines().find(|l| l.starts_with("device ")).unwrap();
        let hand_built = |interface: &str, hidden: usize, sizes: &[usize]| {
            format!(
                "meircs v1\ninterface {interface}\nhidden {hidden}\n{device}\n\
                 weighted_loss true\n--- network ---\n{}",
                neural::MlpBuilder::new(sizes).build().to_text()
            )
        };
        // A bit width past MAX_BITS over a network it fits.
        assert!(matches!(
            MeiRcs::from_text(&hand_built("1 33 1 1 binary", 4, &[33, 4, 1])),
            Err(ParseRcsError::BadStructure(_))
        ));
        // A hidden size the network contradicts.
        assert!(matches!(
            MeiRcs::from_text(&hand_built("1 4 1 4 binary", 3, &[4, 16, 4])),
            Err(ParseRcsError::ShapeMismatch(_))
        ));
        // Two hidden layers where MEI has one.
        assert!(matches!(
            MeiRcs::from_text(&hand_built("1 4 1 4 binary", 16, &[4, 16, 16, 4])),
            Err(ParseRcsError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ParseRcsError::BadHeader,
            ParseRcsError::BadStructure("x".into()),
            ParseRcsError::Network(ParseMlpError::BadHeader),
            ParseRcsError::ShapeMismatch("y".into()),
            ParseRcsError::Rebuild("z".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

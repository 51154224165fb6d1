//! Streaming truth inference: keep estimates fresh while answers arrive one
//! at a time, re-fitting the full EM model only periodically (the §5.1
//! incremental acceleration wrapped as `OnlineTCrowd`).
//!
//! ```text
//! cargo run --release --example streaming_inference
//! ```

use tcrowd::prelude::*;
use tcrowd::tabular::evaluate_with_answers;

fn main() {
    // A ground-truth table and a shuffled stream of crowd answers.
    let data = generate_dataset(
        &GeneratorConfig {
            rows: 40,
            columns: 5,
            answers_per_task: 5,
            num_workers: 25,
            ..Default::default()
        },
        31,
    );

    let mut online = OnlineTCrowd::empty(TCrowd::default_full(), data.schema.clone(), data.rows());
    online.refit_every = 100;

    println!("answers      pending    error rate    MNAD");
    for (i, &answer) in data.answers.all().iter().enumerate() {
        let refit = online.add_answer(answer);
        if refit || (i + 1) % 250 == 0 {
            let report = evaluate_with_answers(
                &data.schema,
                &data.truth,
                &online.estimates(),
                online.answers(),
            );
            println!(
                "{:>7}    {:>9}    {:>10.4}    {:.4}{}",
                i + 1,
                online.pending(),
                report.error_rate.unwrap(),
                report.mnad.unwrap(),
                if refit { "   <- full EM re-fit" } else { "" }
            );
        }
    }

    // Wrap up with one final exact fit.
    online.refit();
    let final_report =
        evaluate_with_answers(&data.schema, &data.truth, &online.estimates(), online.answers());
    println!(
        "\nfinal: error rate {:.4}, MNAD {:.4} after {} answers",
        final_report.error_rate.unwrap(),
        final_report.mnad.unwrap(),
        online.answers().len()
    );
    println!("The estimates stay usable between re-fits at O(1) cost per answer.");
}

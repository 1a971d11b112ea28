#include "sim/dataset1.h"

#include <cmath>
#include <vector>

#include "sim/error_injector.h"
#include "sim/master_data.h"
#include "util/rng.h"

namespace gdr {

namespace {

constexpr const char* kClassifications[] = {
    "Emergency", "Urgent", "Routine", "Follow-up", "Transfer",
};

constexpr const char* kComplaints[] = {
    "Chest pain",    "Abdominal pain", "Fever",         "Headache",
    "Back pain",     "Shortness of breath", "Laceration", "Fracture",
    "Dizziness",     "Nausea",         "Burn",          "Allergic reaction",
    "Cough",         "Sore throat",    "Rash",          "Eye injury",
    "Ear pain",      "Dehydration",    "Seizure",       "Syncope",
    "Palpitations",  "Overdose",       "Animal bite",   "Fall",
};

constexpr const char* kStateTypos[] = {"IND", "In", "Ind.", "IN "};

}  // namespace

Result<Dataset> GenerateDataset1(const Dataset1Options& options) {
  // Every row is drawn from a hospital by its volume weight.
  if (options.num_hospitals == 0 || !std::isfinite(options.volume_skew)) {
    return Status::InvalidArgument(
        "dataset1: needs hospitals >= 1 and a finite volume_skew");
  }
  GDR_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({"PatientID", "Age", "Sex", "Classification", "Complaint",
                    "HospitalName", "StreetAddress", "City", "Zip", "State",
                    "VisitDate"}));
  Dataset dataset(schema);
  dataset.name = "dataset1-hospital";

  const MasterDirectory directory = MasterDirectory::BuildIndiana();
  HospitalFleetOptions fleet_options;
  fleet_options.count = options.num_hospitals;
  fleet_options.seed = options.seed * 31 + 13;
  const std::vector<Hospital> hospitals =
      BuildHospitals(directory, fleet_options);
  const std::vector<double> volume =
      HospitalVolumeWeights(hospitals.size(), options.volume_skew);

  Rng rng(options.seed);

  // Clean instance.
  std::vector<std::size_t> hospital_of_row;
  hospital_of_row.reserve(options.num_records);
  for (std::size_t i = 0; i < options.num_records; ++i) {
    const std::size_t h = rng.NextWeighted(volume);
    hospital_of_row.push_back(h);
    const Hospital& hospital = hospitals[h];
    const std::vector<std::string>& streets =
        directory.streets_by_city.at(hospital.city);
    const std::string& street = streets[rng.NextBounded(streets.size())];
    const std::string zip = directory.ZipOfStreet(street, hospital.city);

    std::vector<std::string> row = {
        /*PatientID=*/"P" + std::to_string(100000 + i),
        /*Age=*/std::to_string(1 + rng.NextBounded(98)),
        /*Sex=*/rng.NextBernoulli(0.5) ? "M" : "F",
        /*Classification=*/
        kClassifications[rng.NextBounded(
            sizeof(kClassifications) / sizeof(kClassifications[0]))],
        /*Complaint=*/
        kComplaints[rng.NextBounded(sizeof(kComplaints) /
                                    sizeof(kComplaints[0]))],
        /*HospitalName=*/hospital.name,
        /*StreetAddress=*/street,
        /*City=*/hospital.city,
        /*Zip=*/zip,
        /*State=*/"IN",
        /*VisitDate=*/
        "2010-" + std::to_string(1 + rng.NextBounded(12)) + "-" +
            std::to_string(1 + rng.NextBounded(28)),
    };
    GDR_ASSIGN_OR_RETURN(RowId added, dataset.clean.AppendRow(row));
    (void)added;
  }

  // Dirty instance: per-hospital correlated corruption.
  dataset.dirty = dataset.clean;
  GDR_ASSIGN_OR_RETURN(const AttrId kStreet,
                       schema.GetAttr("StreetAddress"));
  GDR_ASSIGN_OR_RETURN(const AttrId kCity, schema.GetAttr("City"));
  GDR_ASSIGN_OR_RETURN(const AttrId kZip, schema.GetAttr("Zip"));
  GDR_ASSIGN_OR_RETURN(const AttrId kState, schema.GetAttr("State"));

  for (std::size_t i = 0; i < options.num_records; ++i) {
    const Hospital& hospital = hospitals[hospital_of_row[i]];
    const double rate = hospital.error_rate * options.error_scale;
    if (rate <= 0.0 || !rng.NextBernoulli(rate)) continue;
    const RowId row = static_cast<RowId>(i);
    ++dataset.corrupted_tuples;

    switch (hospital.profile) {
      case Hospital::Profile::kClean:
        --dataset.corrupted_tuples;  // unreachable rate guard
        break;
      case Hospital::Profile::kCityTypo:
        dataset.dirty.Set(row, kCity,
                          PerturbCharacters(dataset.clean.at(row, kCity),
                                            &rng));
        break;
      case Hospital::Profile::kCitySwap:
        dataset.dirty.Set(row, kCity, hospital.wrong_city);
        break;
      case Hospital::Profile::kZipBoundary: {
        const std::string& true_zip = dataset.clean.at(row, kZip);
        auto partner = directory.boundary_partner.find(true_zip);
        if (partner != directory.boundary_partner.end()) {
          dataset.dirty.Set(row, kZip, partner->second);
        }
        break;
      }
      case Hospital::Profile::kStateTypo:
        dataset.dirty.Set(
            row, kState,
            kStateTypos[rng.NextBounded(sizeof(kStateTypos) /
                                        sizeof(kStateTypos[0]))]);
        break;
      case Hospital::Profile::kStreetTypo:
        dataset.dirty.Set(row, kStreet,
                          PerturbCharacters(dataset.clean.at(row, kStreet),
                                            &rng));
        break;
    }
  }

  // Rules: Figure 1's family over the full directory.
  int rule_number = 0;
  for (const ZipEntry& entry : directory.zips) {
    GDR_RETURN_NOT_OK(dataset.rules.AddRuleFromString(
        "phi" + std::to_string(++rule_number),
        "Zip=" + entry.zip + " -> City=" + entry.city +
            " ; State=" + entry.state));
  }
  GDR_RETURN_NOT_OK(dataset.rules.AddRuleFromString(
      "phi" + std::to_string(++rule_number),
      "StreetAddress, City -> Zip"));

  return dataset;
}

}  // namespace gdr
